#include "src/pt/print.h"

#include <string>

namespace pebbletc {

namespace {

std::string GuardString(const PebbleGuard& g, uint32_t level,
                        const RankedAlphabet& input) {
  std::string out = "(";
  out += (g.symbol == kAnySymbol) ? "*" : input.Name(g.symbol);
  if (g.presence_mask != 0) {
    out += ", b=";
    for (uint32_t j = 0; j + 1 < level; ++j) {
      if ((g.presence_mask >> j) & 1u) {
        out += ((g.presence_value >> j) & 1u) ? '1' : '0';
      } else {
        out += '-';
      }
    }
  }
  return out;
}

std::string MoveName(PebbleTransducer::MoveKind m) {
  using M = PebbleTransducer::MoveKind;
  switch (m) {
    case M::kStay:
      return "stay";
    case M::kDownLeft:
      return "down-left";
    case M::kDownRight:
      return "down-right";
    case M::kUpLeft:
      return "up-left";
    case M::kUpRight:
      return "up-right";
    case M::kPlacePebble:
      return "place-new-pebble";
    case M::kPickPebble:
      return "pick-current-pebble";
  }
  return "?";
}

std::string StateName(StateId q, uint32_t level) {
  std::string name = "q";
  name += std::to_string(q);
  name += "^(";
  name += std::to_string(level);
  name += ')';
  return name;
}

}  // namespace

std::string TransducerString(const PebbleTransducer& t,
                             const RankedAlphabet& input,
                             const RankedAlphabet& output) {
  std::string out = "k-pebble transducer: k=" + std::to_string(t.max_pebbles()) +
                    ", states=" + std::to_string(t.num_states()) +
                    ", start=" + StateName(t.start(), t.level(t.start())) +
                    "\n";
  using TK = PebbleTransducer::TransitionKind;
  for (const auto& tr : t.transitions()) {
    const uint32_t lvl = t.level(tr.from);
    out += "  " + GuardString(tr.guard, lvl, input) + ", " +
           StateName(tr.from, lvl) + ") -> ";
    switch (tr.kind) {
      case TK::kMove:
        out += '(';
        out += StateName(tr.to, t.level(tr.to));
        out += ", ";
        out += MoveName(tr.move);
        out += ')';
        break;
      case TK::kOutputLeaf:
        out += "(" + output.Name(tr.output_symbol) + ", output0)";
        break;
      case TK::kOutputBinary:
        out += "(" + output.Name(tr.output_symbol) + "(" +
               StateName(tr.out_left, lvl) + ", " +
               StateName(tr.out_right, lvl) + "), output2)";
        break;
    }
    out += "\n";
  }
  return out;
}

std::string PebbleAutomatonString(const PebbleAutomaton& a,
                                  const RankedAlphabet& alphabet) {
  std::string out = "k-pebble automaton: k=" + std::to_string(a.max_pebbles()) +
                    ", states=" + std::to_string(a.num_states()) +
                    ", start=" + StateName(a.start(), a.level(a.start())) +
                    "\n";
  using TK = PebbleAutomaton::TransitionKind;
  for (const auto& tr : a.transitions()) {
    const uint32_t lvl = a.level(tr.from);
    out += "  " + GuardString(tr.guard, lvl, alphabet) + ", " +
           StateName(tr.from, lvl) + ") -> ";
    switch (tr.kind) {
      case TK::kMove:
        out += '(';
        out += StateName(tr.to, a.level(tr.to));
        out += ", ";
        out += MoveName(tr.move);
        out += ')';
        break;
      case TK::kAccept:
        out += "(branch0)";
        break;
      case TK::kBranch:
        out += "((" + StateName(tr.left, lvl) + ", " +
               StateName(tr.right, lvl) + "), branch2)";
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace pebbletc
