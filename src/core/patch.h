#pragma once

/**
 * @file
 * Repair patches: GenProg-style edit lists over AST node ids.
 *
 * Each program variant in the CirFix population is stored not as a
 * whole tree but as a patch — a sequence of edits parameterized by the
 * unique node numbers of the tree they apply to (paper Section 3).
 * Applying a patch to a pristine clone of the original design is
 * deterministic: clones preserve node ids and inserted code is
 * numbered from SourceFile::nextId in application order, so the same
 * patch always produces the same tree (edits later in the list may
 * therefore reference nodes created by earlier edits).
 *
 * Edits whose target no longer exists (removed by an earlier edit)
 * are silently skipped, matching the tolerant patch semantics of
 * GenProg-family repair tools.
 */

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/templates.h"
#include "verilog/ast.h"

namespace cirfix::core {

enum class EditKind {
    Replace,      //!< replace statement @p target with a copy of code
    InsertAfter,  //!< insert a copy of code after statement @p target
    Delete,       //!< replace statement @p target with a null statement
    Template,     //!< apply a repair template at @p target
};

const char *editKindName(EditKind k);

/**
 * An edit's donor statement (an owned prototype) and its printed text.
 *
 * The text is printed once, when a statement is attached (constructed
 * or assigned), and travels with every copy, which deep-copies the
 * statement. The statement is reachable only through const accessors,
 * and replacing it reprints, so the text always belongs to the
 * statement currently held: Edit::key() can use it instead of
 * re-printing the donor on every call.
 */
class DonorCode
{
  public:
    DonorCode() = default;
    DonorCode(std::nullptr_t) {}
    /** Attach @p stmt (implicit, so `e.code = s->cloneStmt()` attaches
     *  a donor). */
    DonorCode(verilog::StmtPtr stmt);
    DonorCode(const DonorCode &o);
    DonorCode &operator=(const DonorCode &o);
    DonorCode(DonorCode &&o) noexcept;
    DonorCode &operator=(DonorCode &&o) noexcept;

    const verilog::Stmt *get() const { return stmt_.get(); }
    const verilog::Stmt &operator*() const { return *stmt_; }
    const verilog::Stmt *operator->() const { return stmt_.get(); }
    explicit operator bool() const { return stmt_ != nullptr; }

    /** printStmt(*get(), 0); empty when no statement is attached. */
    const std::string &text() const { return text_; }

  private:
    verilog::StmtPtr stmt_;
    std::string text_;
};

struct Edit
{
    EditKind kind = EditKind::Delete;
    int target = -1;
    /** Donor statement for Replace/InsertAfter. */
    DonorCode code;
    /** Template to apply for EditKind::Template. */
    TemplateKind tmpl = TemplateKind::NegateConditional;
    /** Template parameter (e.g., the sensitivity signal name). */
    std::string param;

    /** One-line description ("replace(12)", "template[negate-cond]@4"). */
    std::string describe() const;

    /**
     * Canonical fingerprint of this edit: kind, target, and the full
     * payload (printed donor code, template kind, template parameter),
     * separated by control characters that cannot appear in printed
     * Verilog. Two edits have equal keys iff they apply identically.
     */
    std::string key() const;

    /** Append key() to @p out. */
    void appendKey(std::string &out) const;
};

struct Patch
{
    std::vector<Edit> edits;

    bool empty() const { return edits.empty(); }
    size_t size() const { return edits.size(); }

    /** Multi-line human-readable description. */
    std::string describe() const;

    /**
     * Canonical cache key: the concatenated Edit::key() sequence.
     * Patch application is deterministic (see file comment), so equal
     * keys imply identical patched trees and hence identical fitness —
     * the property the engine's fitness cache relies on. Unlike a
     * 64-bit digest, the key is exact: distinct edit lists can never
     * collide.
     */
    std::string key() const;
};

/**
 * Apply @p patch to a fresh clone of @p original.
 *
 * @param applied_out If non-null, receives the number of edits that
 *                    found their target (diagnostics).
 * @return The patched tree (never null; unapplicable edits skipped).
 */
std::unique_ptr<verilog::SourceFile>
applyPatch(const verilog::SourceFile &original, const Patch &patch,
           int *applied_out = nullptr);

/**
 * Apply a single edit in place. Returns false if the target id does
 * not exist (the edit is then a no-op).
 */
bool applyEdit(verilog::SourceFile &file, const Edit &edit);

} // namespace cirfix::core
