#pragma once

/**
 * @file
 * Four-state logic values for Verilog simulation.
 *
 * Verilog models every bit as one of four states: 0, 1, x (unknown) and
 * z (high impedance). We use the conventional two-plane encoding (cf. the
 * VPI aval/bval encoding): each bit is a pair (a, b) where
 *
 *   (a=0, b=0) -> 0      (a=1, b=0) -> 1
 *   (a=0, b=1) -> z      (a=1, b=1) -> x
 *
 * so plane `b` marks "not a proper binary value" and plane `a`
 * distinguishes 0/1 (respectively z/x). All Verilog operators defined on
 * vectors (IEEE 1364-2005, clause 5) are implemented with standard
 * x/z-propagation semantics.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cirfix::sim {

/**
 * Word storage for one plane of a LogicVec with a one-word inline
 * buffer: vectors of width <= 64 — the overwhelming majority of
 * signals, ports and interpreter temporaries in the benchmark suite —
 * never touch the heap. The simulator hot path allocates LogicVec
 * temporaries for every expression evaluation and every recorded
 * sample, so this removes two global-allocator round trips per
 * temporary (see DESIGN.md, "Simulator allocations").
 *
 * The interface is the subset of std::vector<uint64_t> the logic
 * implementation uses; growth semantics are assign-only (a LogicVec
 * never resizes its planes in place).
 */
class WordStore
{
  public:
    WordStore() = default;
    WordStore(const WordStore &o) { copyFrom(o); }
    WordStore(WordStore &&o) noexcept { moveFrom(o); }
    ~WordStore() { release(); }

    WordStore &
    operator=(const WordStore &o)
    {
        if (this != &o) {
            release();
            copyFrom(o);
        }
        return *this;
    }

    WordStore &
    operator=(WordStore &&o) noexcept
    {
        if (this != &o) {
            release();
            moveFrom(o);
        }
        return *this;
    }

    /** Discard contents and hold @p n copies of @p fill. */
    void assign(size_t n, uint64_t fill);

    size_t size() const { return n_; }
    uint64_t *data() { return heap_ ? heap_ : &inline0_; }
    const uint64_t *data() const { return heap_ ? heap_ : &inline0_; }

    uint64_t &operator[](size_t i) { return data()[i]; }
    uint64_t operator[](size_t i) const { return data()[i]; }
    uint64_t &back() { return data()[n_ - 1]; }
    uint64_t back() const { return data()[n_ - 1]; }

    const uint64_t *begin() const { return data(); }
    const uint64_t *end() const { return data() + n_; }

    bool operator==(const WordStore &o) const;

  private:
    void copyFrom(const WordStore &o);
    void moveFrom(WordStore &o) noexcept;
    void release();

    size_t n_ = 0;
    uint64_t inline0_ = 0;
    uint64_t *heap_ = nullptr;
};

/**
 * Number of heap allocations WordStore has performed on this thread
 * (wide vectors only). Deterministic for a deterministic workload, so
 * the benchmark-regression gate can alarm on allocation regressions
 * without timing noise.
 */
uint64_t logicHeapAllocs();

/** One four-state logic bit. Values chosen to match the (a, b) planes. */
enum class Bit : uint8_t {
    Zero = 0,  //!< a=0 b=0
    One = 1,   //!< a=1 b=0
    Z = 2,     //!< a=0 b=1
    X = 3,     //!< a=1 b=1
};

/** Render a single bit as the canonical character 0/1/x/z. */
char bitChar(Bit b);

/** Parse one of '0','1','x','X','z','Z','?' into a Bit; '?' maps to z. */
Bit charBit(char c);

/**
 * An arbitrary-width vector of four-state bits.
 *
 * Bit 0 is the least significant bit. The vector is unsigned; the
 * benchmarks in this repository use unsigned arithmetic exclusively
 * (matching the original CirFix benchmark suite).
 */
class LogicVec
{
  public:
    /** Construct a 1-bit x value. */
    LogicVec() : LogicVec(1, Bit::X) {}

    /** Construct @p width bits all set to @p fill. */
    explicit LogicVec(int width, Bit fill = Bit::X);

    /** Construct @p width bits from the binary value @p value (2-state). */
    LogicVec(int width, uint64_t value);

    /** Build from a string of 0/1/x/z characters, MSB first. */
    static LogicVec fromString(const std::string &bits);

    /** All-zero vector of the given width. */
    static LogicVec zeros(int width) { return LogicVec(width, Bit::Zero); }
    /** All-x vector of the given width. */
    static LogicVec xs(int width) { return LogicVec(width, Bit::X); }
    /** All-z vector of the given width. */
    static LogicVec zsVec(int width) { return LogicVec(width, Bit::Z); }

    int width() const { return width_; }

    Bit bit(int i) const;
    void setBit(int i, Bit b);

    /** True iff any bit is x or z. */
    bool hasUnknown() const;

    /** True iff every bit is 0 (x/z bits make this false). */
    bool isAllZero() const;

    /** True iff at least one bit is a definite 1. */
    bool hasOne() const;

    /**
     * Verilog truthiness used by if/while/ternary conditions: a value is
     * taken as true iff it has at least one definite 1 bit. Conditions
     * that are ambiguous (no 1 but some x/z) count as false, matching
     * the behavior of `if` in event-driven simulation.
     */
    bool isTrue() const { return hasOne(); }

    /** Low 64 bits interpreted as binary; x/z bits read as 0. */
    uint64_t toUint64() const;

    /** Render MSB-first as 0/1/x/z characters. */
    std::string toString() const;

    /** Render as decimal if fully defined, else as the bit string. */
    std::string toDecimalString() const;

    /** Exact representation equality (same width and same 4-state bits). */
    bool identical(const LogicVec &o) const;

    bool operator==(const LogicVec &o) const { return identical(o); }

    /**
     * Zero-extend or truncate to @p new_width. Verilog assignment
     * semantics: truncation drops high bits, extension fills with 0.
     */
    LogicVec resized(int new_width) const;

    /** Part select [msb:lsb] (msb >= lsb); out-of-range bits read x. */
    LogicVec slice(int msb, int lsb) const;

    /** Overwrite bits [lsb .. lsb+v.width()-1] with @p v (in range only). */
    void writeSlice(int lsb, const LogicVec &v);

    // --- Verilog operators (names follow the operator they implement) ---

    /** ~a */
    LogicVec bitNot() const;
    LogicVec bitAnd(const LogicVec &o) const;  //!< a & b
    LogicVec bitOr(const LogicVec &o) const;   //!< a | b
    LogicVec bitXor(const LogicVec &o) const;  //!< a ^ b
    LogicVec bitXnor(const LogicVec &o) const; //!< a ~^ b

    LogicVec add(const LogicVec &o) const;     //!< a + b
    LogicVec sub(const LogicVec &o) const;     //!< a - b
    LogicVec mul(const LogicVec &o) const;     //!< a * b
    LogicVec div(const LogicVec &o) const;     //!< a / b (x on div-by-0)
    LogicVec mod(const LogicVec &o) const;     //!< a % b (x on mod-by-0)
    LogicVec negate() const;                   //!< -a (two's complement)
    LogicVec pow(const LogicVec &o) const;     //!< a ** b

    LogicVec shl(const LogicVec &o) const;     //!< a << b
    LogicVec shr(const LogicVec &o) const;     //!< a >> b

    /** Relational; result is a 1-bit value, x if either side unknown. */
    LogicVec lt(const LogicVec &o) const;
    LogicVec le(const LogicVec &o) const;
    LogicVec gt(const LogicVec &o) const;
    LogicVec ge(const LogicVec &o) const;

    /** Logical equality ==; 1-bit result, x if comparison is ambiguous. */
    LogicVec logicEq(const LogicVec &o) const;
    LogicVec logicNeq(const LogicVec &o) const;

    /** Case equality ===; always 0 or 1, x/z compare literally. */
    LogicVec caseEq(const LogicVec &o) const;
    LogicVec caseNeq(const LogicVec &o) const;

    /** Logical && || ! on truthiness; 1-bit result with x propagation. */
    LogicVec logicAnd(const LogicVec &o) const;
    LogicVec logicOr(const LogicVec &o) const;
    LogicVec logicNot() const;

    /** Reduction operators; 1-bit result. */
    LogicVec reduceAnd() const;
    LogicVec reduceOr() const;
    LogicVec reduceXor() const;
    LogicVec reduceNand() const;
    LogicVec reduceNor() const;
    LogicVec reduceXnor() const;

    /** {a, b}: @p hi becomes the most significant part. */
    static LogicVec concat(const LogicVec &hi, const LogicVec &lo);

    /** {n{a}} replication. */
    LogicVec replicate(int n) const;

  private:
    int width_;
    WordStore aval_;
    WordStore bval_;

    int words() const { return static_cast<int>(aval_.size()); }
    void maskTop();
    /** 1-bit helper vectors for relational/equality results. */
    static LogicVec bit1(bool v);
    static LogicVec bitX();
    /** Compare fully-defined vectors as unsigned integers: -1/0/+1. */
    int compareKnown(const LogicVec &o) const;
};

} // namespace cirfix::sim
