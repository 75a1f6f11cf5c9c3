#include "sim/trace.h"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace cirfix::sim {

Trace::Trace(std::vector<std::string> vars) : block_(new Block)
{
    block_->vars = std::move(vars);
}

Trace::Trace(const Trace &o) noexcept : block_(o.block_)
{
    if (block_)
        block_->refs.fetch_add(1, std::memory_order_relaxed);
}

Trace &
Trace::operator=(const Trace &o) noexcept
{
    Trace copy(o);
    std::swap(block_, copy.block_);
    return *this;
}

Trace &
Trace::operator=(Trace &&o) noexcept
{
    Trace taken(std::move(o));
    std::swap(block_, taken.block_);
    return *this;
}

Trace::~Trace()
{
    // acq_rel: the last holder must see every other holder's reads
    // finish before it frees the block.
    if (block_ && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
        delete block_;
}

const std::vector<std::string> &
Trace::vars() const
{
    static const std::vector<std::string> none;
    return block_ ? block_->vars : none;
}

const std::vector<Trace::Row> &
Trace::rows() const
{
    static const std::vector<Row> none;
    return block_ ? block_->rows : none;
}

Trace::Block &
Trace::own()
{
    // acquire pairs with the release in ~Trace: once the count reads
    // 1, every former co-holder's reads happen before our writes.
    if (!block_) {
        block_ = new Block;
    } else if (block_->refs.load(std::memory_order_acquire) != 1) {
        Block *mine = new Block;
        mine->vars = block_->vars;
        mine->rows = block_->rows;
        Trace shared;  // drops our reference to the shared block
        shared.block_ = std::exchange(block_, mine);
    }
    return *block_;
}

void
Trace::addRow(SimTime time, std::vector<LogicVec> values)
{
    std::vector<Row> &rows = own().rows;
    if (!rows.empty() && rows.back().time == time) {
        // Re-sample at the same instant: keep the latest values.
        rows.back().values = std::move(values);
        return;
    }
    rows.push_back(Row{time, std::move(values)});
}

int
Trace::varIndex(const std::string &var) const
{
    const std::vector<std::string> &names = vars();
    for (size_t i = 0; i < names.size(); ++i)
        if (names[i] == var)
            return static_cast<int>(i);
    return -1;
}

std::optional<LogicVec>
Trace::at(SimTime time, const std::string &var) const
{
    int col = varIndex(var);
    if (col < 0)
        return std::nullopt;
    if (const Row *r = rowAt(time))
        return r->values[static_cast<size_t>(col)];
    return std::nullopt;
}

const Trace::Row *
Trace::rowAt(SimTime time) const
{
    // Rows are sorted by time; binary search.
    const std::vector<Row> &rs = rows();
    size_t lo = 0, hi = rs.size();
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (rs[mid].time < time)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < rs.size() && rs[lo].time == time)
        return &rs[lo];
    return nullptr;
}

uint64_t
Trace::totalBits() const
{
    uint64_t n = 0;
    for (auto &r : rows())
        for (auto &v : r.values)
            n += static_cast<uint64_t>(v.width());
    return n;
}

std::string
Trace::toCsv() const
{
    std::ostringstream os;
    os << "time";
    for (auto &v : vars())
        os << "," << v;
    os << "\n";
    for (auto &r : rows()) {
        os << r.time;
        for (auto &v : r.values)
            os << "," << v.toString();
        os << "\n";
    }
    return os.str();
}

Trace
Trace::fromCsv(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line))
        throw std::runtime_error("empty trace CSV");
    auto split = [](const std::string &s) {
        std::vector<std::string> out;
        std::string cur;
        for (char c : s) {
            if (c == ',') {
                out.push_back(cur);
                cur.clear();
            } else if (c != '\r') {
                cur.push_back(c);
            }
        }
        out.push_back(cur);
        return out;
    };
    std::vector<std::string> header = split(line);
    if (header.empty() || header[0] != "time")
        throw std::runtime_error("trace CSV must start with 'time'");
    Trace t(std::vector<std::string>(header.begin() + 1, header.end()));
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> cells = split(line);
        if (cells.size() != header.size())
            throw std::runtime_error("trace CSV row width mismatch");
        std::vector<LogicVec> values;
        for (size_t i = 1; i < cells.size(); ++i)
            values.push_back(LogicVec::fromString(cells[i]));
        t.addRow(std::stoull(cells[0]), std::move(values));
    }
    return t;
}

} // namespace cirfix::sim
