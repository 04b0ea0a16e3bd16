#include "isa/opcode.hh"

#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace edge::isa {

namespace detail {

constexpr OpInfo kOpTable[] = {
    // name    ops imm  fu               bytes load  store branch
    {"mov",    1, false, FuClass::IntAlu, 0, false, false, false},
    {"movi",   0, true,  FuClass::IntAlu, 0, false, false, false},

    {"add",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"sub",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"mul",    2, false, FuClass::IntMul, 0, false, false, false},
    {"divs",   2, false, FuClass::IntDiv, 0, false, false, false},
    {"divu",   2, false, FuClass::IntDiv, 0, false, false, false},
    {"remu",   2, false, FuClass::IntDiv, 0, false, false, false},
    {"and",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"or",     2, false, FuClass::IntAlu, 0, false, false, false},
    {"xor",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"shl",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"shr",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"sra",    2, false, FuClass::IntAlu, 0, false, false, false},

    {"addi",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"muli",   1, true,  FuClass::IntMul, 0, false, false, false},
    {"andi",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"ori",    1, true,  FuClass::IntAlu, 0, false, false, false},
    {"xori",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"shli",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"shri",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"srai",   1, true,  FuClass::IntAlu, 0, false, false, false},

    {"teq",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"tne",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"tlt",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"tle",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"tltu",   2, false, FuClass::IntAlu, 0, false, false, false},
    {"tleu",   2, false, FuClass::IntAlu, 0, false, false, false},
    {"teqi",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"tnei",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"tlti",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"tltui",  1, true,  FuClass::IntAlu, 0, false, false, false},

    {"sel",    3, false, FuClass::IntAlu, 0, false, false, false},

    {"fadd",   2, false, FuClass::FpAlu,  0, false, false, false},
    {"fsub",   2, false, FuClass::FpAlu,  0, false, false, false},
    {"fmul",   2, false, FuClass::FpMul,  0, false, false, false},
    {"fdiv",   2, false, FuClass::FpDiv,  0, false, false, false},
    {"feq",    2, false, FuClass::FpAlu,  0, false, false, false},
    {"flt",    2, false, FuClass::FpAlu,  0, false, false, false},
    {"fle",    2, false, FuClass::FpAlu,  0, false, false, false},
    {"i2f",    1, false, FuClass::FpAlu,  0, false, false, false},
    {"f2i",    1, false, FuClass::FpAlu,  0, false, false, false},

    {"ldb",    1, true,  FuClass::Mem,    1, true,  false, false},
    {"ldh",    1, true,  FuClass::Mem,    2, true,  false, false},
    {"ldw",    1, true,  FuClass::Mem,    4, true,  false, false},
    {"ldd",    1, true,  FuClass::Mem,    8, true,  false, false},
    {"stb",    2, true,  FuClass::Mem,    1, false, true,  false},
    {"sth",    2, true,  FuClass::Mem,    2, false, true,  false},
    {"stw",    2, true,  FuClass::Mem,    4, false, true,  false},
    {"std",    2, true,  FuClass::Mem,    8, false, true,  false},

    {"br",     1, false, FuClass::Ctrl,   0, false, false, true},
    {"bro",    0, true,  FuClass::Ctrl,   0, false, false, true},
};

static_assert(sizeof(kOpTable) / sizeof(kOpTable[0]) ==
                  static_cast<std::size_t>(Opcode::NUM_OPCODES),
              "opcode table out of sync with Opcode enum");

} // namespace detail

namespace {

/** Saturating signed division (never UB, even speculatively). */
SWord
safeDivS(SWord a, SWord b)
{
    if (b == 0)
        return 0;
    if (a == std::numeric_limits<SWord>::min() && b == -1)
        return std::numeric_limits<SWord>::min();
    return a / b;
}

} // namespace

bool
opcodeByName(const char *name, Opcode *out)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Opcode::NUM_OPCODES); ++i) {
        if (std::strcmp(detail::kOpTable[i].name, name) == 0) {
            *out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

Word
evalOp(Opcode op, Word a, Word b, Word c, std::int64_t imm)
{
    auto sa = static_cast<SWord>(a);
    auto ib = static_cast<Word>(imm);
    switch (op) {
      case Opcode::MOV:  return a;
      case Opcode::MOVI: return ib;

      case Opcode::ADD:  return a + b;
      case Opcode::SUB:  return a - b;
      case Opcode::MUL:  return a * b;
      case Opcode::DIVS: return static_cast<Word>(
              safeDivS(sa, static_cast<SWord>(b)));
      case Opcode::DIVU: return b == 0 ? 0 : a / b;
      case Opcode::REMU: return b == 0 ? 0 : a % b;
      case Opcode::AND:  return a & b;
      case Opcode::OR:   return a | b;
      case Opcode::XOR:  return a ^ b;
      case Opcode::SHL:  return a << (b & 63);
      case Opcode::SHR:  return a >> (b & 63);
      case Opcode::SRA:  return static_cast<Word>(sa >> (b & 63));

      case Opcode::ADDI: return a + ib;
      case Opcode::MULI: return a * ib;
      case Opcode::ANDI: return a & ib;
      case Opcode::ORI:  return a | ib;
      case Opcode::XORI: return a ^ ib;
      case Opcode::SHLI: return a << (imm & 63);
      case Opcode::SHRI: return a >> (imm & 63);
      case Opcode::SRAI: return static_cast<Word>(sa >> (imm & 63));

      case Opcode::TEQ:  return a == b;
      case Opcode::TNE:  return a != b;
      case Opcode::TLT:  return sa < static_cast<SWord>(b);
      case Opcode::TLE:  return sa <= static_cast<SWord>(b);
      case Opcode::TLTU: return a < b;
      case Opcode::TLEU: return a <= b;
      case Opcode::TEQI: return a == ib;
      case Opcode::TNEI: return a != ib;
      case Opcode::TLTI: return sa < imm;
      case Opcode::TLTUI: return a < ib;

      case Opcode::SEL:  return a != 0 ? b : c;

      case Opcode::FADD:
        return doubleToWord(wordToDouble(a) + wordToDouble(b));
      case Opcode::FSUB:
        return doubleToWord(wordToDouble(a) - wordToDouble(b));
      case Opcode::FMUL:
        return doubleToWord(wordToDouble(a) * wordToDouble(b));
      case Opcode::FDIV:
        return doubleToWord(wordToDouble(a) / wordToDouble(b));
      case Opcode::FEQ:  return wordToDouble(a) == wordToDouble(b);
      case Opcode::FLT:  return wordToDouble(a) < wordToDouble(b);
      case Opcode::FLE:  return wordToDouble(a) <= wordToDouble(b);
      case Opcode::I2F:  return doubleToWord(static_cast<double>(sa));
      case Opcode::F2I: {
        double d = wordToDouble(a);
        // Clamp to the representable range so speculative garbage
        // never triggers UB in the host conversion.
        if (!(d >= -9.2233720368547758e18 && d <= 9.2233720368547758e18))
            return 0;
        return static_cast<Word>(static_cast<SWord>(d));
      }

      case Opcode::BR:   return a;
      case Opcode::BRO:  return ib;

      default:
        panic("evalOp called on memory opcode %s", opName(op));
    }
}

} // namespace edge::isa
