#include "core/patch.h"

#include <sstream>

#include "verilog/printer.h"

namespace cirfix::core {

using namespace verilog;

const char *
editKindName(EditKind k)
{
    switch (k) {
      case EditKind::Replace: return "replace";
      case EditKind::InsertAfter: return "insert-after";
      case EditKind::Delete: return "delete";
      case EditKind::Template: return "template";
    }
    return "?";
}

DonorCode::DonorCode(StmtPtr stmt) : stmt_(std::move(stmt))
{
    if (stmt_)
        text_ = printStmt(*stmt_, 0);
}

DonorCode::DonorCode(const DonorCode &o)
    : stmt_(o.stmt_ ? o.stmt_->cloneStmt() : nullptr), text_(o.text_)
{}

DonorCode &
DonorCode::operator=(const DonorCode &o)
{
    if (this != &o) {
        stmt_ = o.stmt_ ? o.stmt_->cloneStmt() : nullptr;
        text_ = o.text_;
    }
    return *this;
}

// Moves leave the source empty, text included: an empty DonorCode
// always has empty text.
DonorCode::DonorCode(DonorCode &&o) noexcept
    : stmt_(std::move(o.stmt_)), text_(std::move(o.text_))
{
    o.text_.clear();
}

DonorCode &
DonorCode::operator=(DonorCode &&o) noexcept
{
    if (this != &o) {
        stmt_ = std::move(o.stmt_);
        text_ = std::move(o.text_);
        o.text_.clear();
    }
    return *this;
}

std::string
Edit::describe() const
{
    std::ostringstream os;
    if (kind == EditKind::Template) {
        os << "template[" << templateName(tmpl) << "]@" << target;
        if (!param.empty())
            os << "(" << param << ")";
    } else {
        os << editKindName(kind) << "@" << target;
    }
    return os.str();
}

std::string
Patch::describe() const
{
    std::ostringstream os;
    for (size_t i = 0; i < edits.size(); ++i) {
        if (i)
            os << "; ";
        os << edits[i].describe();
    }
    return os.str();
}

void
Edit::appendKey(std::string &out) const
{
    // \x1f separates fields, \x1e terminates the edit; neither occurs
    // in printed Verilog, so the encoding is unambiguous.
    out += std::to_string(static_cast<int>(kind));
    out += '\x1f';
    out += std::to_string(target);
    out += '\x1f';
    if (kind == EditKind::Template) {
        out += std::to_string(static_cast<int>(tmpl));
        out += '\x1f';
        out += param;
    } else {
        out += code.text();
    }
    out += '\x1e';
}

std::string
Edit::key() const
{
    std::string k;
    appendKey(k);
    return k;
}

std::string
Patch::key() const
{
    std::string k;
    for (const Edit &e : edits)
        e.appendKey(k);
    return k;
}

namespace {

/**
 * Visit every owned statement slot of a module, pre-order. The
 * callback receives the slot plus, when the slot is directly inside a
 * begin/end block, that block and the statement's index. Returning
 * true stops the walk (used after a mutation so the freshly inserted
 * code is not re-visited).
 */
using SlotFn = std::function<bool(StmtPtr &, SeqBlock *, size_t)>;

bool
walkSlot(StmtPtr &slot, SeqBlock *parent, size_t idx, const SlotFn &fn)
{
    if (!slot)
        return false;
    if (fn(slot, parent, idx))
        return true;
    switch (slot->kind) {
      case NodeKind::SeqBlock: {
        auto *blk = slot->as<SeqBlock>();
        for (size_t i = 0; i < blk->stmts.size(); ++i)
            if (walkSlot(blk->stmts[i], blk, i, fn))
                return true;
        return false;
      }
      case NodeKind::If: {
        auto *s = slot->as<If>();
        return walkSlot(s->thenStmt, nullptr, 0, fn) ||
               walkSlot(s->elseStmt, nullptr, 0, fn);
      }
      case NodeKind::Case: {
        auto *s = slot->as<Case>();
        for (auto &item : s->items)
            if (walkSlot(item.body, nullptr, 0, fn))
                return true;
        return false;
      }
      case NodeKind::For: {
        auto *s = slot->as<For>();
        return walkSlot(s->init, nullptr, 0, fn) ||
               walkSlot(s->step, nullptr, 0, fn) ||
               walkSlot(s->body, nullptr, 0, fn);
      }
      case NodeKind::While:
        return walkSlot(slot->as<While>()->body, nullptr, 0, fn);
      case NodeKind::Repeat:
        return walkSlot(slot->as<Repeat>()->body, nullptr, 0, fn);
      case NodeKind::Forever:
        return walkSlot(slot->as<Forever>()->body, nullptr, 0, fn);
      case NodeKind::DelayStmt:
        return walkSlot(slot->as<DelayStmt>()->stmt, nullptr, 0, fn);
      case NodeKind::EventCtrl:
        return walkSlot(slot->as<EventCtrl>()->stmt, nullptr, 0, fn);
      case NodeKind::Wait:
        return walkSlot(slot->as<Wait>()->stmt, nullptr, 0, fn);
      default:
        return false;
    }
}

bool
walkModuleSlots(Module &mod, const SlotFn &fn)
{
    for (auto &item : mod.items) {
        if (item->kind == NodeKind::AlwaysBlock) {
            if (walkSlot(item->as<AlwaysBlock>()->body, nullptr, 0, fn))
                return true;
        } else if (item->kind == NodeKind::InitialBlock) {
            if (walkSlot(item->as<InitialBlock>()->body, nullptr, 0, fn))
                return true;
        }
    }
    return false;
}

bool
walkFileSlots(SourceFile &file, const SlotFn &fn)
{
    for (auto &mod : file.modules)
        if (walkModuleSlots(*mod, fn))
            return true;
    return false;
}

} // namespace

bool
applyEdit(SourceFile &file, const Edit &edit)
{
    switch (edit.kind) {
      case EditKind::Replace: {
        if (!edit.code)
            return false;
        return walkFileSlots(file, [&](StmtPtr &slot, SeqBlock *,
                                       size_t) {
            if (slot->id != edit.target)
                return false;
            StmtPtr repl = edit.code->cloneStmt();
            numberSubtree(file, *repl);
            slot = std::move(repl);
            return true;
        });
      }
      case EditKind::Delete: {
        return walkFileSlots(file, [&](StmtPtr &slot, SeqBlock *,
                                       size_t) {
            if (slot->id != edit.target)
                return false;
            auto null_stmt = std::make_unique<NullStmt>();
            numberSubtree(file, *null_stmt);
            slot = std::move(null_stmt);
            return true;
        });
      }
      case EditKind::InsertAfter: {
        if (!edit.code)
            return false;
        return walkFileSlots(file, [&](StmtPtr &slot, SeqBlock *parent,
                                       size_t idx) {
            if (slot->id != edit.target || !parent)
                return false;
            StmtPtr ins = edit.code->cloneStmt();
            numberSubtree(file, *ins);
            parent->stmts.insert(
                parent->stmts.begin() + static_cast<long>(idx) + 1,
                std::move(ins));
            return true;
        });
      }
      case EditKind::Template:
        return applyTemplate(file, edit.tmpl, edit.target, edit.param);
    }
    return false;
}

std::unique_ptr<SourceFile>
applyPatch(const SourceFile &original, const Patch &patch,
           int *applied_out)
{
    auto file = original.cloneFile();
    int applied = 0;
    for (const Edit &e : patch.edits)
        applied += applyEdit(*file, e) ? 1 : 0;
    if (applied_out)
        *applied_out = applied;
    return file;
}

} // namespace cirfix::core
