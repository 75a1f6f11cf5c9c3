#include "verilog/parser.h"

#include <algorithm>
#include <unordered_set>

#include "verilog/lexer.h"

namespace cirfix::verilog {

namespace {

const std::unordered_set<std::string> kKeywords = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "integer", "parameter", "localparam", "event", "assign", "always",
    "initial", "begin", "end", "if", "else", "case", "casez", "casex",
    "endcase", "default", "for", "while", "repeat", "forever", "wait",
    "posedge", "negedge", "or", "and", "not", "signed", "deassign",
    "function", "endfunction", "task", "endtask", "generate",
    "endgenerate", "genvar",
};

class Parser
{
  public:
    explicit Parser(const std::string &source) : toks_(lex(source)) {}

    std::unique_ptr<SourceFile>
    parseFile()
    {
        auto file = std::make_unique<SourceFile>();
        while (!at(Tok::End)) {
            expectKeyword("module");
            file->modules.push_back(parseModule());
        }
        for (auto &mod : file->modules)
            fillSpans(*mod);
        numberNodes(*file);
        return file;
    }

  private:
    std::vector<Token> toks_;
    size_t pos_ = 0;
    /** Open statements and expression operands around the parse point
     *  (the parser's recursion depth). */
    int depth_ = 0;
    /** Height of the expression the last expression parse returned. */
    int height_ = 0;

    /** One more level of parser recursion, bounded by kMaxAstDepth. */
    struct Nest
    {
        Parser &p;
        explicit Nest(Parser &parser) : p(parser)
        {
            if (++p.depth_ > kMaxAstDepth)
                p.fail("nesting deeper than " +
                       std::to_string(kMaxAstDepth) + " levels");
        }
        ~Nest() { --p.depth_; }
    };

    /** Record that the expression node just built sits one level
     *  above children at most @p below high; it must fit, with the
     *  nesting around it, within kMaxAstDepth. */
    void
    grew(int below)
    {
        height_ = below + 1;
        if (depth_ + height_ > kMaxAstDepth)
            fail("expression deeper than " +
                 std::to_string(kMaxAstDepth) + " levels");
    }

    const Token &peek(size_t off = 0) const
    {
        size_t i = pos_ + off;
        return i < toks_.size() ? toks_[i] : toks_.back();
    }
    const Token &take() { return toks_[pos_ < toks_.size() - 1 ? pos_++
                                                               : pos_]; }
    bool at(Tok k) const { return peek().kind == k; }
    bool atPunct(const std::string &p) const { return peek().isPunct(p); }
    bool atKeyword(const std::string &k) const
    {
        return peek().isKeyword(k);
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw ParseError("line " + std::to_string(peek().line) + ":" +
                         std::to_string(peek().col) + ": " + msg +
                         " (got '" + peek().text + "')");
    }

    void
    expectPunct(const std::string &p)
    {
        if (!atPunct(p))
            fail("expected '" + p + "'");
        take();
    }

    void
    expectKeyword(const std::string &k)
    {
        if (!atKeyword(k))
            fail("expected '" + k + "'");
        take();
    }

    bool
    acceptPunct(const std::string &p)
    {
        if (atPunct(p)) {
            take();
            return true;
        }
        return false;
    }

    bool
    acceptKeyword(const std::string &k)
    {
        if (atKeyword(k)) {
            take();
            return true;
        }
        return false;
    }

    std::string
    expectIdent()
    {
        if (!at(Tok::Ident) || kKeywords.count(peek().text))
            fail("expected identifier");
        return take().text;
    }

    template <typename T>
    std::unique_ptr<T>
    mk()
    {
        auto n = std::make_unique<T>();
        n->line = peek().line;
        n->span.line = peek().line;
        n->span.col = peek().col;
        return n;
    }

    /** Stamp @p n's span end from the most recently consumed token. */
    void
    closeSpanRef(Node &n)
    {
        const Token &prev = toks_[pos_ > 0 ? pos_ - 1 : 0];
        n.span.endLine = prev.endLine;
        n.span.endCol = prev.endCol;
    }

    template <typename T>
    std::unique_ptr<T>
    closeSpan(std::unique_ptr<T> n)
    {
        closeSpanRef(*n);
        return n;
    }

    // ----------------------------------------------------------------
    // Modules
    // ----------------------------------------------------------------

    std::unique_ptr<Module>
    parseModule()
    {
        auto mod = mk<Module>();
        mod->name = expectIdent();
        if (acceptPunct("(")) {
            if (!atPunct(")"))
                parsePortList(*mod);
            expectPunct(")");
        }
        expectPunct(";");
        while (!acceptKeyword("endmodule")) {
            if (at(Tok::End))
                fail("unexpected end of file in module body");
            size_t before = mod->items.size();
            parseItem(*mod);
            // Multi-declarator items share the span of the whole item.
            for (size_t i = before; i < mod->items.size(); ++i)
                closeSpanRef(*mod->items[i]);
        }
        return closeSpan(std::move(mod));
    }

    /**
     * Post-parse pass: nodes built without explicit span bookkeeping
     * inherit a begin from Node::line and an end from their children,
     * so every parsed node ends up with a usable (if sometimes
     * conservative) range.
     */
    static void
    fillSpans(Node &n)
    {
        n.forEachChild([&](Node *c) {
            if (!c)
                return;
            fillSpans(*c);
            if (c->span.endLine > n.span.endLine ||
                (c->span.endLine == n.span.endLine &&
                 c->span.endCol > n.span.endCol)) {
                n.span.endLine = c->span.endLine;
                n.span.endCol = c->span.endCol;
            }
        });
        if (n.span.line == 0 && n.line > 0) {
            n.span.line = n.line;
            n.span.col = 1;
        }
        if (n.span.endLine == 0) {
            n.span.endLine = n.span.line;
            n.span.endCol = n.span.col;
        }
    }

    static PortDir
    dirOf(const std::string &kw)
    {
        if (kw == "input")
            return PortDir::Input;
        if (kw == "output")
            return PortDir::Output;
        return PortDir::Inout;
    }

    void
    parsePortList(Module &mod)
    {
        // Either a plain name list (traditional) or ANSI declarations.
        for (;;) {
            if (atKeyword("input") || atKeyword("output") ||
                atKeyword("inout")) {
                parseAnsiPortGroup(mod);
            } else {
                Port p;
                p.name = expectIdent();
                p.dir = PortDir::Input;  // fixed up by body declarations
                mod.ports.push_back(p);
            }
            if (!acceptPunct(","))
                break;
        }
    }

    void
    parseAnsiPortGroup(Module &mod)
    {
        PortDir dir = dirOf(take().text);
        VarKind vk = VarKind::Wire;
        if (acceptKeyword("reg"))
            vk = VarKind::Reg;
        else
            acceptKeyword("wire");
        bool is_signed = acceptKeyword("signed");
        ExprPtr msb, lsb;
        parseOptRange(msb, lsb);
        for (;;) {
            auto decl = mk<VarDecl>();
            decl->varKind = vk;
            decl->isSigned = is_signed;
            decl->name = expectIdent();
            decl->msb = msb ? msb->cloneExpr() : nullptr;
            decl->lsb = lsb ? lsb->cloneExpr() : nullptr;
            mod.ports.push_back(Port{decl->name, dir});
            mod.items.push_back(std::move(decl));
            // A following "," may introduce either another name in this
            // group or a new direction group; peek to decide.
            if (atPunct(",") &&
                !(peek(1).isKeyword("input") || peek(1).isKeyword("output")
                  || peek(1).isKeyword("inout"))) {
                take();
                continue;
            }
            break;
        }
    }

    /** Parse "[msb:lsb]" if present. */
    void
    parseOptRange(ExprPtr &msb, ExprPtr &lsb)
    {
        if (acceptPunct("[")) {
            msb = parseExpr();
            expectPunct(":");
            lsb = parseExpr();
            expectPunct("]");
        }
    }

    // ----------------------------------------------------------------
    // Module items
    // ----------------------------------------------------------------

    void
    parseItem(Module &mod)
    {
        if (atKeyword("input") || atKeyword("output") ||
            atKeyword("inout")) {
            parsePortDecl(mod);
        } else if (atKeyword("wire") || atKeyword("reg") ||
                   atKeyword("integer") || atKeyword("event")) {
            parseNetDecl(mod);
        } else if (atKeyword("parameter") || atKeyword("localparam")) {
            parseParamDecl(mod);
        } else if (acceptKeyword("assign")) {
            for (;;) {
                auto ca = mk<ContAssign>();
                ca->lhs = parseLValue();
                expectPunct("=");
                ca->rhs = parseExpr();
                mod.items.push_back(std::move(ca));
                if (!acceptPunct(","))
                    break;
            }
            expectPunct(";");
        } else if (atKeyword("function")) {
            parseFunction(mod);
        } else if (atKeyword("always")) {
            auto blk = mk<AlwaysBlock>();
            take();
            blk->body = parseStmt();
            mod.items.push_back(std::move(blk));
        } else if (atKeyword("initial")) {
            auto blk = mk<InitialBlock>();
            take();
            blk->body = parseStmt();
            mod.items.push_back(std::move(blk));
        } else if (at(Tok::Ident) && !kKeywords.count(peek().text)) {
            parseInstance(mod);
        } else {
            fail("expected module item");
        }
    }

    void
    parsePortDecl(Module &mod)
    {
        PortDir dir = dirOf(take().text);
        VarKind vk = VarKind::Wire;
        if (acceptKeyword("reg"))
            vk = VarKind::Reg;
        else
            acceptKeyword("wire");
        bool is_signed = acceptKeyword("signed");
        ExprPtr msb, lsb;
        parseOptRange(msb, lsb);
        for (;;) {
            auto decl = mk<VarDecl>();
            decl->varKind = vk;
            decl->isSigned = is_signed;
            decl->name = expectIdent();
            decl->msb = msb ? msb->cloneExpr() : nullptr;
            decl->lsb = lsb ? lsb->cloneExpr() : nullptr;
            // Traditional style: fix up the direction of the listed port
            // (or add the port if the header omitted it).
            bool found = false;
            for (auto &p : mod.ports) {
                if (p.name == decl->name) {
                    p.dir = dir;
                    found = true;
                }
            }
            if (!found)
                mod.ports.push_back(Port{decl->name, dir});
            mod.items.push_back(std::move(decl));
            if (!acceptPunct(","))
                break;
        }
        expectPunct(";");
    }

    void
    parseNetDecl(Module &mod)
    {
        std::string kw = take().text;
        VarKind vk = kw == "wire" ? VarKind::Wire
                     : kw == "reg" ? VarKind::Reg
                     : kw == "integer" ? VarKind::Integer
                                       : VarKind::Event;
        bool is_signed = acceptKeyword("signed");
        ExprPtr msb, lsb;
        if (vk != VarKind::Event && vk != VarKind::Integer)
            parseOptRange(msb, lsb);
        for (;;) {
            auto decl = mk<VarDecl>();
            decl->varKind = vk;
            decl->isSigned = is_signed;
            decl->name = expectIdent();
            decl->msb = msb ? msb->cloneExpr() : nullptr;
            decl->lsb = lsb ? lsb->cloneExpr() : nullptr;
            if (vk == VarKind::Reg && acceptPunct("[")) {
                decl->arrayFirst = parseExpr();
                expectPunct(":");
                decl->arrayLast = parseExpr();
                expectPunct("]");
            }
            if (acceptPunct("="))
                decl->init = parseExpr();
            // An existing port with this name keeps its direction but
            // gains reg-ness via this declaration: nothing to update
            // here because elaboration looks decls up by name.
            mod.items.push_back(std::move(decl));
            if (!acceptPunct(","))
                break;
        }
        expectPunct(";");
    }

    void
    parseParamDecl(Module &mod)
    {
        VarKind vk = take().text == "parameter" ? VarKind::Parameter
                                                : VarKind::Localparam;
        ExprPtr msb, lsb;
        parseOptRange(msb, lsb);
        for (;;) {
            auto decl = mk<VarDecl>();
            decl->varKind = vk;
            decl->msb = msb ? msb->cloneExpr() : nullptr;
            decl->lsb = lsb ? lsb->cloneExpr() : nullptr;
            decl->name = expectIdent();
            expectPunct("=");
            decl->init = parseExpr();
            mod.items.push_back(std::move(decl));
            if (!acceptPunct(","))
                break;
        }
        expectPunct(";");
    }

    void
    parseFunction(Module &mod)
    {
        auto fn = mk<FunctionDecl>();
        expectKeyword("function");
        acceptKeyword("signed");
        parseOptRange(fn->msb, fn->lsb);
        fn->name = expectIdent();
        expectPunct(";");
        // Declarations: inputs, regs, integers.
        while (atKeyword("input") || atKeyword("reg") ||
               atKeyword("integer")) {
            bool is_input = atKeyword("input");
            std::string kw = take().text;
            VarKind vk = kw == "integer" ? VarKind::Integer
                                         : VarKind::Reg;
            if (is_input)
                acceptKeyword("reg");
            acceptKeyword("signed");
            ExprPtr msb, lsb;
            if (vk != VarKind::Integer)
                parseOptRange(msb, lsb);
            for (;;) {
                auto decl = mk<VarDecl>();
                decl->varKind = vk;
                decl->name = expectIdent();
                decl->msb = msb ? msb->cloneExpr() : nullptr;
                decl->lsb = lsb ? lsb->cloneExpr() : nullptr;
                if (is_input)
                    fn->inputOrder.push_back(decl->name);
                fn->locals.push_back(std::move(decl));
                if (!acceptPunct(","))
                    break;
            }
            expectPunct(";");
        }
        fn->body = parseStmt();
        expectKeyword("endfunction");
        if (fn->inputOrder.empty())
            fail("function '" + fn->name + "' has no inputs");
        mod.items.push_back(std::move(fn));
    }

    void
    parseInstance(Module &mod)
    {
        auto inst = mk<Instance>();
        inst->moduleName = expectIdent();
        inst->instName = expectIdent();
        expectPunct("(");
        if (!atPunct(")")) {
            for (;;) {
                PortConn conn;
                if (acceptPunct(".")) {
                    conn.port = expectIdent();
                    expectPunct("(");
                    if (!atPunct(")"))
                        conn.expr = parseExpr();
                    expectPunct(")");
                } else {
                    conn.expr = parseExpr();
                }
                inst->conns.push_back(std::move(conn));
                if (!acceptPunct(","))
                    break;
            }
        }
        expectPunct(")");
        expectPunct(";");
        mod.items.push_back(std::move(inst));
    }

    // ----------------------------------------------------------------
    // Statements
    // ----------------------------------------------------------------

    /** Parse a statement; never returns null. */
    StmtPtr
    parseStmt()
    {
        Nest nest(*this);
        return closeSpan(parseStmtInner());
    }

    StmtPtr
    parseStmtInner()
    {
        if (atKeyword("begin"))
            return parseSeqBlock();
        if (atKeyword("if"))
            return parseIf();
        if (atKeyword("case") || atKeyword("casez") || atKeyword("casex"))
            return parseCase();
        if (atKeyword("for"))
            return parseFor();
        if (atKeyword("while"))
            return parseWhile();
        if (atKeyword("repeat"))
            return parseRepeat();
        if (atKeyword("forever")) {
            auto s = mk<Forever>();
            take();
            s->body = parseStmt();
            return s;
        }
        if (atPunct("#"))
            return parseDelayStmt();
        if (atPunct("@"))
            return parseEventCtrl();
        if (atKeyword("wait"))
            return parseWait();
        if (atPunct("->")) {
            auto line = peek().line;
            auto col = peek().col;
            take();
            auto s = std::make_unique<TriggerEvent>(expectIdent());
            s->line = line;
            s->span.line = line;
            s->span.col = col;
            expectPunct(";");
            return s;
        }
        if (at(Tok::SysIdent))
            return parseSysTask();
        if (atPunct(";")) {
            auto s = mk<NullStmt>();
            take();
            return s;
        }
        return parseAssignStmt();
    }

    /** After # or @, parse either ';' (no statement) or a statement. */
    StmtPtr
    parseOptStmt()
    {
        if (acceptPunct(";"))
            return nullptr;
        return parseStmt();
    }

    StmtPtr
    parseSeqBlock()
    {
        auto blk = mk<SeqBlock>();
        expectKeyword("begin");
        if (acceptPunct(":"))
            blk->name = expectIdent();
        while (!acceptKeyword("end")) {
            if (at(Tok::End))
                fail("unexpected end of file in begin/end block");
            blk->stmts.push_back(parseStmt());
        }
        return blk;
    }

    StmtPtr
    parseIf()
    {
        auto s = mk<If>();
        expectKeyword("if");
        expectPunct("(");
        s->cond = parseExpr();
        expectPunct(")");
        s->thenStmt = parseStmt();
        if (acceptKeyword("else"))
            s->elseStmt = parseStmt();
        return s;
    }

    StmtPtr
    parseCase()
    {
        auto s = mk<Case>();
        std::string kw = take().text;
        s->type = kw == "case" ? CaseType::Case
                  : kw == "casez" ? CaseType::CaseZ
                                  : CaseType::CaseX;
        expectPunct("(");
        s->subject = parseExpr();
        expectPunct(")");
        while (!acceptKeyword("endcase")) {
            if (at(Tok::End))
                fail("unexpected end of file in case statement");
            CaseItem item;
            if (acceptKeyword("default")) {
                acceptPunct(":");
            } else {
                for (;;) {
                    item.labels.push_back(parseExpr());
                    if (!acceptPunct(","))
                        break;
                }
                expectPunct(":");
            }
            if (atPunct(";")) {
                take();  // empty arm
            } else {
                item.body = parseStmt();
            }
            s->items.push_back(std::move(item));
        }
        return s;
    }

    StmtPtr
    parseFor()
    {
        auto s = mk<For>();
        expectKeyword("for");
        expectPunct("(");
        s->init = parsePlainAssign();
        expectPunct(";");
        s->cond = parseExpr();
        expectPunct(";");
        s->step = parsePlainAssign();
        expectPunct(")");
        s->body = parseStmt();
        return s;
    }

    /** "a = expr" with no trailing ';' (for-loop init/step). */
    StmtPtr
    parsePlainAssign()
    {
        auto a = mk<Assign>();
        a->lhs = parseLValue();
        if (acceptPunct("<="))
            a->blocking = false;
        else
            expectPunct("=");
        a->rhs = parseExpr();
        return a;
    }

    StmtPtr
    parseWhile()
    {
        auto s = mk<While>();
        expectKeyword("while");
        expectPunct("(");
        s->cond = parseExpr();
        expectPunct(")");
        s->body = parseStmt();
        return s;
    }

    StmtPtr
    parseRepeat()
    {
        auto s = mk<Repeat>();
        expectKeyword("repeat");
        expectPunct("(");
        s->count = parseExpr();
        expectPunct(")");
        s->body = parseStmt();
        return s;
    }

    StmtPtr
    parseDelayStmt()
    {
        auto s = mk<DelayStmt>();
        expectPunct("#");
        s->delay = parseDelayValue();
        s->stmt = parseOptStmt();
        return s;
    }

    /** Delay values are primaries: #5, #N, #(a+b). */
    ExprPtr
    parseDelayValue()
    {
        if (acceptPunct("(")) {
            ExprPtr e = parseExpr();
            expectPunct(")");
            return e;
        }
        return parsePrimary();
    }

    StmtPtr
    parseEventCtrl()
    {
        auto s = mk<EventCtrl>();
        expectPunct("@");
        if (acceptPunct("*")) {
            s->star = true;
        } else if (acceptPunct("(")) {
            if (acceptPunct("*")) {
                s->star = true;
            } else {
                for (;;) {
                    EventExpr e;
                    if (acceptKeyword("posedge"))
                        e.edge = Edge::Pos;
                    else if (acceptKeyword("negedge"))
                        e.edge = Edge::Neg;
                    e.signal = parseExpr();
                    s->events.push_back(std::move(e));
                    if (acceptKeyword("or") || acceptPunct(","))
                        continue;
                    break;
                }
            }
            expectPunct(")");
        } else {
            // "@ident" named-event shorthand
            EventExpr e;
            e.signal = std::make_unique<Ident>(expectIdent());
            s->events.push_back(std::move(e));
        }
        s->stmt = parseOptStmt();
        return s;
    }

    StmtPtr
    parseWait()
    {
        auto s = mk<Wait>();
        expectKeyword("wait");
        expectPunct("(");
        s->cond = parseExpr();
        expectPunct(")");
        s->stmt = parseOptStmt();
        return s;
    }

    StmtPtr
    parseSysTask()
    {
        auto s = mk<SysTask>();
        s->name = take().text;
        if (acceptPunct("(")) {
            if (!atPunct(")")) {
                bool first = true;
                for (;;) {
                    if (first && at(Tok::String)) {
                        s->format = take().text;
                    } else {
                        s->args.push_back(parseExpr());
                    }
                    first = false;
                    if (!acceptPunct(","))
                        break;
                }
            }
            expectPunct(")");
        }
        expectPunct(";");
        return s;
    }

    StmtPtr
    parseAssignStmt()
    {
        auto a = mk<Assign>();
        a->lhs = parseLValue();
        if (acceptPunct("<="))
            a->blocking = false;
        else if (acceptPunct("="))
            a->blocking = true;
        else
            fail("expected '=' or '<='");
        if (acceptPunct("#"))
            a->delay = parseDelayValue();
        a->rhs = parseExpr();
        expectPunct(";");
        return a;
    }

    /** Lvalues: ident, ident[i], ident[m:l], or a concat of lvalues. */
    ExprPtr
    parseLValue()
    {
        Nest nest(*this);
        int line = peek().line;
        int col = peek().col;
        int below = 0;  // tallest child so far
        auto begin = [&](auto node) {
            node->line = line;
            node->span.line = line;
            node->span.col = col;
            grew(below);
            return closeSpan(std::move(node));
        };
        auto child = [&](ExprPtr e) {
            below = std::max(below, height_);
            return e;
        };
        if (acceptPunct("{")) {
            auto c = std::make_unique<Concat>();
            for (;;) {
                c->parts.push_back(child(parseLValue()));
                if (!acceptPunct(","))
                    break;
            }
            expectPunct("}");
            return begin(std::move(c));
        }
        std::string name = expectIdent();
        if (acceptPunct("[")) {
            ExprPtr first = child(parseExpr());
            if (acceptPunct(":")) {
                ExprPtr second = child(parseExpr());
                expectPunct("]");
                return begin(std::make_unique<RangeSel>(
                    name, std::move(first), std::move(second)));
            }
            expectPunct("]");
            return begin(std::make_unique<Index>(name, std::move(first)));
        }
        return begin(std::make_unique<Ident>(name));
    }

    // ----------------------------------------------------------------
    // Expressions (precedence climbing)
    // ----------------------------------------------------------------

    ExprPtr
    parseExpr()
    {
        return parseTernary();
    }

    ExprPtr
    parseTernary()
    {
        Nest nest(*this);
        ExprPtr cond = parseBinary(0);
        if (acceptPunct("?")) {
            int below = height_;
            ExprPtr t = parseTernary();
            below = std::max(below, height_);
            expectPunct(":");
            ExprPtr e = parseTernary();
            grew(std::max(below, height_));
            Span first = cond->span;
            int line = cond->line;
            auto n = std::make_unique<Ternary>(std::move(cond),
                                               std::move(t), std::move(e));
            n->line = line;
            n->span.line = first.line;
            n->span.col = first.col;
            return closeSpan(std::move(n));
        }
        return cond;
    }

    struct OpInfo
    {
        BinaryOp op;
        int prec;
    };

    /** Binary operator lookup; higher prec binds tighter. */
    static bool
    binaryOp(const Token &t, OpInfo &info)
    {
        if (t.kind != Tok::Punct)
            return false;
        const std::string &s = t.text;
        struct Entry
        {
            const char *text;
            BinaryOp op;
            int prec;
        };
        static const Entry table[] = {
            {"||", BinaryOp::LogOr, 1},
            {"&&", BinaryOp::LogAnd, 2},
            {"|", BinaryOp::BitOr, 3},
            {"^", BinaryOp::BitXor, 4},
            {"~^", BinaryOp::BitXnor, 4},
            {"^~", BinaryOp::BitXnor, 4},
            {"&", BinaryOp::BitAnd, 5},
            {"==", BinaryOp::Eq, 6},
            {"!=", BinaryOp::Neq, 6},
            {"===", BinaryOp::CaseEq, 6},
            {"!==", BinaryOp::CaseNeq, 6},
            {"<", BinaryOp::Lt, 7},
            {"<=", BinaryOp::Le, 7},
            {">", BinaryOp::Gt, 7},
            {">=", BinaryOp::Ge, 7},
            {"<<", BinaryOp::Shl, 8},
            {">>", BinaryOp::Shr, 8},
            {"+", BinaryOp::Add, 9},
            {"-", BinaryOp::Sub, 9},
            {"*", BinaryOp::Mul, 10},
            {"/", BinaryOp::Div, 10},
            {"%", BinaryOp::Mod, 10},
            {"**", BinaryOp::Pow, 11},
        };
        for (const auto &e : table) {
            if (s == e.text) {
                info = {e.op, e.prec};
                return true;
            }
        }
        return false;
    }

    ExprPtr
    parseBinary(int min_prec)
    {
        ExprPtr lhs = parseUnary();
        for (;;) {
            OpInfo info;
            if (!binaryOp(peek(), info) || info.prec < min_prec)
                break;
            int line = peek().line;
            take();
            // A left-deep chain grows one level per operator with no
            // recursion: the height check is what bounds it.
            int lhsHeight = height_;
            ExprPtr rhs = parseBinary(info.prec + 1);
            grew(std::max(lhsHeight, height_));
            Span first = lhs->span;
            auto n = std::make_unique<Binary>(info.op, std::move(lhs),
                                              std::move(rhs));
            n->line = line;
            n->span.line = first.line;
            n->span.col = first.col;
            lhs = closeSpan(std::move(n));
        }
        return lhs;
    }

    ExprPtr
    parseUnary()
    {
        struct Entry
        {
            const char *text;
            UnaryOp op;
        };
        static const Entry table[] = {
            {"+", UnaryOp::Plus},   {"-", UnaryOp::Minus},
            {"!", UnaryOp::Not},    {"~", UnaryOp::BitNot},
            {"&", UnaryOp::RedAnd}, {"|", UnaryOp::RedOr},
            {"^", UnaryOp::RedXor}, {"~&", UnaryOp::RedNand},
            {"~|", UnaryOp::RedNor}, {"~^", UnaryOp::RedXnor},
            {"^~", UnaryOp::RedXnor},
        };
        if (peek().kind == Tok::Punct) {
            for (const auto &e : table) {
                if (peek().text == e.text) {
                    int line = peek().line;
                    int col = peek().col;
                    take();
                    Nest nest(*this);
                    auto n = std::make_unique<Unary>(e.op, parseUnary());
                    grew(height_);
                    n->line = line;
                    n->span.line = line;
                    n->span.col = col;
                    return closeSpan(std::move(n));
                }
            }
        }
        return parsePrimary();
    }

    ExprPtr
    parsePrimary()
    {
        int line = peek().line;
        int col = peek().col;
        int below = 0;  // tallest child so far
        auto begin = [&](auto node) -> ExprPtr {
            node->line = line;
            node->span.line = line;
            node->span.col = col;
            grew(below);
            return closeSpan(std::move(node));
        };
        auto child = [&](ExprPtr e) {
            below = std::max(below, height_);
            return e;
        };
        if (at(Tok::Number)) {
            const Token &t = take();
            auto n = std::make_unique<Number>(t.value, t.base);
            n->sized = t.sized;
            return begin(std::move(n));
        }
        if (at(Tok::SysIdent)) {
            auto n = std::make_unique<SysFuncCall>(take().text);
            if (acceptPunct("(")) {
                if (!atPunct(")")) {
                    for (;;) {
                        n->args.push_back(child(parseExpr()));
                        if (!acceptPunct(","))
                            break;
                    }
                }
                expectPunct(")");
            }
            return begin(std::move(n));
        }
        if (acceptPunct("(")) {
            ExprPtr e = parseExpr();
            expectPunct(")");
            return e;
        }
        if (acceptPunct("{")) {
            // Replication {n{v}} or concatenation {a, b, ...}.
            ExprPtr first = child(parseExpr());
            if (atPunct("{")) {
                take();
                ExprPtr value = child(parseExpr());
                expectPunct("}");
                expectPunct("}");
                return begin(std::make_unique<Repl>(std::move(first),
                                                    std::move(value)));
            }
            auto c = std::make_unique<Concat>();
            c->parts.push_back(std::move(first));
            while (acceptPunct(","))
                c->parts.push_back(child(parseExpr()));
            expectPunct("}");
            return begin(std::move(c));
        }
        if (at(Tok::Ident) && !kKeywords.count(peek().text)) {
            std::string name = take().text;
            if (atPunct("(")) {
                // User-defined function call.
                take();
                auto call = std::make_unique<FuncCall>(name);
                if (!atPunct(")")) {
                    for (;;) {
                        call->args.push_back(child(parseExpr()));
                        if (!acceptPunct(","))
                            break;
                    }
                }
                expectPunct(")");
                return begin(std::move(call));
            }
            if (acceptPunct("[")) {
                ExprPtr first = child(parseExpr());
                if (acceptPunct(":")) {
                    ExprPtr second = child(parseExpr());
                    expectPunct("]");
                    return begin(std::make_unique<RangeSel>(
                        name, std::move(first), std::move(second)));
                }
                expectPunct("]");
                return begin(
                    std::make_unique<Index>(name, std::move(first)));
            }
            return begin(std::make_unique<Ident>(name));
        }
        fail("expected expression");
    }
};

} // namespace

std::unique_ptr<SourceFile>
parse(const std::string &source)
{
    Parser p(source);
    return p.parseFile();
}

} // namespace cirfix::verilog
