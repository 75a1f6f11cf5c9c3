#include "verilog/printer.h"

#include <algorithm>
#include <sstream>

namespace cirfix::verilog {

namespace {

const char *
unaryOpText(UnaryOp op)
{
    switch (op) {
      case UnaryOp::Plus: return "+";
      case UnaryOp::Minus: return "-";
      case UnaryOp::Not: return "!";
      case UnaryOp::BitNot: return "~";
      case UnaryOp::RedAnd: return "&";
      case UnaryOp::RedOr: return "|";
      case UnaryOp::RedXor: return "^";
      case UnaryOp::RedNand: return "~&";
      case UnaryOp::RedNor: return "~|";
      case UnaryOp::RedXnor: return "~^";
    }
    return "?";
}

const char *
binaryOpText(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add: return "+";
      case BinaryOp::Sub: return "-";
      case BinaryOp::Mul: return "*";
      case BinaryOp::Div: return "/";
      case BinaryOp::Mod: return "%";
      case BinaryOp::Pow: return "**";
      case BinaryOp::BitAnd: return "&";
      case BinaryOp::BitOr: return "|";
      case BinaryOp::BitXor: return "^";
      case BinaryOp::BitXnor: return "~^";
      case BinaryOp::LogAnd: return "&&";
      case BinaryOp::LogOr: return "||";
      case BinaryOp::Eq: return "==";
      case BinaryOp::Neq: return "!=";
      case BinaryOp::CaseEq: return "===";
      case BinaryOp::CaseNeq: return "!==";
      case BinaryOp::Lt: return "<";
      case BinaryOp::Le: return "<=";
      case BinaryOp::Gt: return ">";
      case BinaryOp::Ge: return ">=";
      case BinaryOp::Shl: return "<<";
      case BinaryOp::Shr: return ">>";
    }
    return "?";
}

std::string
numberText(const Number &n)
{
    const LogicVec &v = n.value;
    if (!n.sized && !v.hasUnknown())
        return v.toDecimalString();
    std::ostringstream os;
    os << v.width() << "'";
    if (n.base == 'd' && !v.hasUnknown()) {
        os << "d" << v.toDecimalString();
    } else if (n.base == 'h' && v.width() % 4 == 0 && !v.hasUnknown()) {
        os << "h";
        static const char *digits = "0123456789abcdef";
        for (int i = v.width() - 4; i >= 0; i -= 4)
            os << digits[v.slice(i + 3, i).toUint64()];
    } else {
        os << "b" << v.toString();
    }
    return os.str();
}

class PrintVisitor
{
  public:
    std::string
    expr(const Expr &e)
    {
        switch (e.kind) {
          case NodeKind::Number:
            return numberText(*e.as<Number>());
          case NodeKind::Ident:
            return e.as<Ident>()->name;
          case NodeKind::Unary: {
            auto *u = e.as<Unary>();
            return std::string(unaryOpText(u->op)) + "(" +
                   expr(*u->operand) + ")";
          }
          case NodeKind::Binary: {
            auto *b = e.as<Binary>();
            std::string s = "(";
            s += expr(*b->lhs);
            s += ' ';
            s += binaryOpText(b->op);
            s += ' ';
            s += expr(*b->rhs);
            s += ')';
            return s;
          }
          case NodeKind::Ternary: {
            auto *t = e.as<Ternary>();
            std::string s = "(";
            s += expr(*t->cond);
            s += " ? ";
            s += expr(*t->thenExpr);
            s += " : ";
            s += expr(*t->elseExpr);
            s += ')';
            return s;
          }
          case NodeKind::Index: {
            auto *ix = e.as<Index>();
            return ix->name + "[" + expr(*ix->index) + "]";
          }
          case NodeKind::RangeSel: {
            auto *r = e.as<RangeSel>();
            return r->name + "[" + expr(*r->msb) + ":" + expr(*r->lsb) +
                   "]";
          }
          case NodeKind::Concat: {
            auto *c = e.as<Concat>();
            std::string s = "{";
            for (size_t i = 0; i < c->parts.size(); ++i) {
                if (i)
                    s += ", ";
                s += expr(*c->parts[i]);
            }
            return s + "}";
          }
          case NodeKind::Repl: {
            auto *r = e.as<Repl>();
            std::string s = "{";
            s += expr(*r->count);
            s += '{';
            s += expr(*r->value);
            s += "}}";
            return s;
          }
          case NodeKind::FuncCall: {
            auto *f = e.as<FuncCall>();
            std::string s = f->name + "(";
            for (size_t i = 0; i < f->args.size(); ++i) {
                if (i)
                    s += ", ";
                s += expr(*f->args[i]);
            }
            return s + ")";
          }
          case NodeKind::SysFuncCall: {
            auto *f = e.as<SysFuncCall>();
            std::string s = f->name;
            if (!f->args.empty()) {
                s += "(";
                for (size_t i = 0; i < f->args.size(); ++i) {
                    if (i)
                        s += ", ";
                    s += expr(*f->args[i]);
                }
                s += ")";
            }
            return s;
          }
          default:
            return "/*?expr?*/";
        }
    }

    void
    stmt(std::ostream &os, const Stmt &s, int ind)
    {
        std::string pad(static_cast<size_t>(ind) * 4, ' ');
        switch (s.kind) {
          case NodeKind::SeqBlock: {
            auto *b = s.as<SeqBlock>();
            os << pad << "begin";
            if (!b->name.empty())
                os << " : " << b->name;
            os << "\n";
            for (auto &child : b->stmts)
                stmt(os, *child, ind + 1);
            os << pad << "end\n";
            break;
          }
          case NodeKind::If: {
            auto *i = s.as<If>();
            os << pad << "if (" << expr(*i->cond) << ")\n";
            stmtOrNull(os, i->thenStmt.get(), ind + 1);
            if (i->elseStmt) {
                os << pad << "else\n";
                stmt(os, *i->elseStmt, ind + 1);
            }
            break;
          }
          case NodeKind::Case: {
            auto *c = s.as<Case>();
            const char *kw = c->type == CaseType::Case ? "case"
                             : c->type == CaseType::CaseZ ? "casez"
                                                          : "casex";
            os << pad << kw << " (" << expr(*c->subject) << ")\n";
            for (auto &it : c->items) {
                os << pad << "    ";
                if (it.labels.empty()) {
                    os << "default";
                } else {
                    for (size_t i = 0; i < it.labels.size(); ++i) {
                        if (i)
                            os << ", ";
                        os << expr(*it.labels[i]);
                    }
                }
                os << " :";
                if (it.body) {
                    os << "\n";
                    stmt(os, *it.body, ind + 2);
                } else {
                    os << " ;\n";
                }
            }
            os << pad << "endcase\n";
            break;
          }
          case NodeKind::For: {
            auto *f = s.as<For>();
            os << pad << "for (" << forClause(f->init.get()) << "; "
               << expr(*f->cond) << "; " << forClause(f->step.get())
               << ")\n";
            stmtOrNull(os, f->body.get(), ind + 1);
            break;
          }
          case NodeKind::While: {
            auto *w = s.as<While>();
            os << pad << "while (" << expr(*w->cond) << ")\n";
            stmtOrNull(os, w->body.get(), ind + 1);
            break;
          }
          case NodeKind::Repeat: {
            auto *r = s.as<Repeat>();
            os << pad << "repeat (" << expr(*r->count) << ")\n";
            stmtOrNull(os, r->body.get(), ind + 1);
            break;
          }
          case NodeKind::Forever: {
            auto *f = s.as<Forever>();
            os << pad << "forever\n";
            stmtOrNull(os, f->body.get(), ind + 1);
            break;
          }
          case NodeKind::Assign: {
            auto *a = s.as<Assign>();
            os << pad << expr(*a->lhs)
               << (a->blocking ? " = " : " <= ");
            if (a->delay)
                os << "#" << expr(*a->delay) << " ";
            os << expr(*a->rhs) << ";\n";
            break;
          }
          case NodeKind::DelayStmt: {
            auto *d = s.as<DelayStmt>();
            os << pad << "#" << expr(*d->delay);
            if (d->stmt) {
                os << "\n";
                stmt(os, *d->stmt, ind + 1);
            } else {
                os << ";\n";
            }
            break;
          }
          case NodeKind::EventCtrl: {
            auto *e = s.as<EventCtrl>();
            os << pad << "@";
            if (e->star) {
                os << "(*)";
            } else {
                os << "(";
                for (size_t i = 0; i < e->events.size(); ++i) {
                    if (i)
                        os << " or ";
                    const EventExpr &ev = e->events[i];
                    if (ev.edge == Edge::Pos)
                        os << "posedge ";
                    else if (ev.edge == Edge::Neg)
                        os << "negedge ";
                    os << expr(*ev.signal);
                }
                os << ")";
            }
            if (e->stmt) {
                os << "\n";
                stmt(os, *e->stmt, ind + 1);
            } else {
                os << ";\n";
            }
            break;
          }
          case NodeKind::Wait: {
            auto *w = s.as<Wait>();
            os << pad << "wait (" << expr(*w->cond) << ")";
            if (w->stmt) {
                os << "\n";
                stmt(os, *w->stmt, ind + 1);
            } else {
                os << ";\n";
            }
            break;
          }
          case NodeKind::TriggerEvent:
            os << pad << "-> " << s.as<TriggerEvent>()->name << ";\n";
            break;
          case NodeKind::SysTask: {
            auto *t = s.as<SysTask>();
            os << pad << t->name;
            if (t->format || !t->args.empty()) {
                os << "(";
                bool first = true;
                if (t->format) {
                    os << '"' << escape(*t->format) << '"';
                    first = false;
                }
                for (auto &a : t->args) {
                    if (!first)
                        os << ", ";
                    os << expr(*a);
                    first = false;
                }
                os << ")";
            }
            os << ";\n";
            break;
          }
          case NodeKind::NullStmt:
            os << pad << ";\n";
            break;
          default:
            os << pad << "/*?stmt?*/;\n";
        }
    }

    void
    stmtOrNull(std::ostream &os, const Stmt *s, int ind)
    {
        if (s) {
            stmt(os, *s, ind);
        } else {
            os << std::string(static_cast<size_t>(ind) * 4, ' ')
               << ";\n";
        }
    }

    /** A for loop's init or step: an assignment as parsed, but a
     *  replace or delete edit can leave any statement there (the rest
     *  of the pipeline takes a generic statement), printed on one line. */
    std::string
    forClause(const Stmt *s)
    {
        if (!s)
            return "";
        if (s->kind == NodeKind::Assign) {
            auto *a = s->as<Assign>();
            return expr(*a->lhs) + (a->blocking ? " = " : " <= ") +
                   expr(*a->rhs);
        }
        std::ostringstream os;
        stmt(os, *s, 0);
        std::string text = os.str();
        std::replace(text.begin(), text.end(), '\n', ' ');
        while (!text.empty() && (text.back() == ' ' || text.back() == ';'))
            text.pop_back();
        return text;
    }

    static std::string
    escape(const std::string &raw)
    {
        std::string out;
        for (char c : raw) {
            if (c == '\n')
                out += "\\n";
            else if (c == '\t')
                out += "\\t";
            else if (c == '"')
                out += "\\\"";
            else if (c == '\\')
                out += "\\\\";
            else
                out.push_back(c);
        }
        return out;
    }

    void
    item(std::ostream &os, const Item &it)
    {
        switch (it.kind) {
          case NodeKind::VarDecl: {
            auto *d = it.as<VarDecl>();
            os << "    " << varKindText(d->varKind);
            if (d->isSigned)
                os << " signed";
            if (d->msb)
                os << " [" << expr(*d->msb) << ":" << expr(*d->lsb)
                   << "]";
            os << " " << d->name;
            if (d->arrayFirst)
                os << " [" << expr(*d->arrayFirst) << ":"
                   << expr(*d->arrayLast) << "]";
            if (d->init)
                os << " = " << expr(*d->init);
            os << ";\n";
            break;
          }
          case NodeKind::ContAssign: {
            auto *a = it.as<ContAssign>();
            os << "    assign " << expr(*a->lhs) << " = " << expr(*a->rhs)
               << ";\n";
            break;
          }
          case NodeKind::AlwaysBlock: {
            auto *b = it.as<AlwaysBlock>();
            os << "    always\n";
            stmt(os, *b->body, 2);
            break;
          }
          case NodeKind::InitialBlock: {
            auto *b = it.as<InitialBlock>();
            os << "    initial\n";
            stmt(os, *b->body, 2);
            break;
          }
          case NodeKind::FunctionDecl: {
            auto *f = it.as<FunctionDecl>();
            os << "    function";
            if (f->msb)
                os << " [" << expr(*f->msb) << ":" << expr(*f->lsb)
                   << "]";
            os << " " << f->name << ";\n";
            for (auto &l : f->locals) {
                bool is_input = false;
                for (auto &in : f->inputOrder)
                    is_input |= (in == l->name);
                os << "        "
                   << (is_input
                           ? "input"
                           : varKindText(l->varKind));
                if (l->msb)
                    os << " [" << expr(*l->msb) << ":"
                       << expr(*l->lsb) << "]";
                os << " " << l->name << ";\n";
            }
            stmt(os, *f->body, 2);
            os << "    endfunction\n";
            break;
          }
          case NodeKind::Instance: {
            auto *in = it.as<Instance>();
            os << "    " << in->moduleName << " " << in->instName << " (";
            for (size_t i = 0; i < in->conns.size(); ++i) {
                if (i)
                    os << ", ";
                const PortConn &c = in->conns[i];
                if (!c.port.empty()) {
                    os << "." << c.port << "(";
                    if (c.expr)
                        os << expr(*c.expr);
                    os << ")";
                } else if (c.expr) {
                    os << expr(*c.expr);
                }
            }
            os << ");\n";
            break;
          }
          default:
            os << "    /*?item?*/;\n";
        }
    }

    static const char *
    varKindText(VarKind k)
    {
        switch (k) {
          case VarKind::Wire: return "wire";
          case VarKind::Reg: return "reg";
          case VarKind::Integer: return "integer";
          case VarKind::Parameter: return "parameter";
          case VarKind::Localparam: return "localparam";
          case VarKind::Event: return "event";
        }
        return "?";
    }

    void
    module(std::ostream &os, const Module &m)
    {
        os << "module " << m.name;
        if (!m.ports.empty()) {
            os << " (";
            for (size_t i = 0; i < m.ports.size(); ++i) {
                if (i)
                    os << ", ";
                os << m.ports[i].name;
            }
            os << ")";
        }
        os << ";\n";
        // Print explicit direction declarations for every port so the
        // output is valid stand-alone Verilog even when the input used
        // ANSI-style headers.
        for (auto &p : m.ports) {
            const VarDecl *d = m.findDecl(p.name);
            os << "    "
               << (p.dir == PortDir::Input ? "input"
                   : p.dir == PortDir::Output ? "output"
                                              : "inout");
            if (d && d->msb)
                os << " [" << expr(*d->msb) << ":" << expr(*d->lsb)
                   << "]";
            os << " " << p.name << ";\n";
        }
        for (auto &it : m.items) {
            // Port-direction decls were already emitted above; print the
            // reg/wire aspect of port declarations too (width included),
            // except plain wire ports which are implied.
            if (it->kind == NodeKind::VarDecl) {
                auto *d = it->as<VarDecl>();
                if (m.portDir(d->name)) {
                    if (d->varKind == VarKind::Reg) {
                        os << "    reg";
                        if (d->msb)
                            os << " [" << expr(*d->msb) << ":"
                               << expr(*d->lsb) << "]";
                        os << " " << d->name << ";\n";
                    }
                    continue;
                }
            }
            item(os, *it);
        }
        os << "endmodule\n";
    }
};

} // namespace

std::string
printExpr(const Expr &e)
{
    PrintVisitor v;
    return v.expr(e);
}

std::string
printStmt(const Stmt &s, int indent)
{
    PrintVisitor v;
    std::ostringstream os;
    v.stmt(os, s, indent);
    return os.str();
}

std::string
print(const Module &mod)
{
    PrintVisitor v;
    std::ostringstream os;
    v.module(os, mod);
    return os.str();
}

std::string
print(const SourceFile &file)
{
    std::ostringstream os;
    for (auto &m : file.modules) {
        PrintVisitor v;
        v.module(os, *m);
        os << "\n";
    }
    return os.str();
}

} // namespace cirfix::verilog
