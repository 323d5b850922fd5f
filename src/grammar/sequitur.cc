#include "grammar/sequitur.h"

#include <cassert>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace rpm::grammar {
namespace {

// Internal linked-symbol representation, closely following the reference
// implementation from Nevill-Manning & Witten. A symbol's `value` encodes
// a terminal as (token << 1) | 1 and a non-terminal as the Rule pointer
// (pointers are at least 2-byte aligned, so the low bit distinguishes).

class Rule;
class Sym;

using DigramKey = std::pair<std::uintptr_t, std::uintptr_t>;

struct DigramKeyHash {
  std::size_t operator()(const DigramKey& k) const {
    // Splitmix-style mix of the two halves.
    std::uint64_t x = static_cast<std::uint64_t>(k.first) * 0x9e3779b97f4a7c15ull;
    x ^= static_cast<std::uint64_t>(k.second) + 0x9e3779b97f4a7c15ull +
         (x << 6) + (x >> 2);
    return static_cast<std::size_t>(x);
  }
};

using DigramIndex = std::unordered_map<DigramKey, Sym*, DigramKeyHash>;

// Shared mutable state for one inference run. Tracks live rules so the
// whole symbol graph can be reclaimed after extraction (the reference
// implementation leaks it).
struct Context {
  DigramIndex digrams;
  int next_rule_number = 0;
  std::unordered_set<Rule*> live_rules;
};

class Sym {
 public:
  Sym* next = nullptr;
  Sym* prev = nullptr;
  std::uintptr_t value = 0;
  Context* ctx = nullptr;

  Sym(std::uint32_t terminal, Context* c)
      : value((static_cast<std::uintptr_t>(terminal) << 1) | 1u), ctx(c) {}
  Sym(Rule* r, Context* c);  // non-terminal; bumps the rule's use count

  ~Sym();

  bool IsTerminal() const { return (value & 1u) != 0; }
  bool IsNonTerminal() const { return value != 0 && (value & 1u) == 0; }
  std::uint32_t Terminal() const {
    return static_cast<std::uint32_t>(value >> 1);
  }
  Rule* RulePtr() const { return reinterpret_cast<Rule*>(value); }
  bool IsGuard() const;

  // Links `left` before `right`, retiring the digram that used to start
  // at `left`.
  static void Join(Sym* left, Sym* right);

  // Inserts `y` immediately after this symbol.
  void InsertAfter(Sym* y) {
    Join(y, next);
    Join(this, y);
  }

  // Removes this digram's index entry if it points at this symbol.
  void DeleteDigram();

  // Checks the digram (this, next) against the index; triggers a match
  // when it already occurs elsewhere. Returns true if a reduction ran.
  bool Check();

  // Replaces the digram starting at this symbol with non-terminal `r`.
  void Substitute(Rule* r);

  // Deals with a matching digram pair (`s`, `m` start equal digrams).
  static void Match(Sym* s, Sym* m);

  // This is the last use of its rule: splice the rule body in place.
  void Expand();

  DigramKey KeyWith(const Sym* b) const { return {value, b->value}; }
};

class Rule {
 public:
  explicit Rule(Context* c) : ctx(c), number(c->next_rule_number++) {
    guard = new Sym(this, c);
    guard->next = guard;
    guard->prev = guard;
    use_count = 0;  // The guard's back-reference does not count as a use.
    c->live_rules.insert(this);
  }
  ~Rule() {
    ctx->live_rules.erase(this);
    delete guard;
  }

  Rule(const Rule&) = delete;
  Rule& operator=(const Rule&) = delete;

  Sym* First() const { return guard->next; }
  Sym* Last() const { return guard->prev; }

  void Reuse() { ++use_count; }
  void Deuse() { --use_count; }

  Sym* guard = nullptr;
  Context* ctx = nullptr;
  int use_count = 0;
  int number = 0;
};

Sym::Sym(Rule* r, Context* c)
    : value(reinterpret_cast<std::uintptr_t>(r)), ctx(c) {
  r->Reuse();
}

Sym::~Sym() {
  if (prev != nullptr && next != nullptr) {
    Join(prev, next);
  }
  if (!IsGuard()) {
    DeleteDigram();
    if (IsNonTerminal()) RulePtr()->Deuse();
  }
}

bool Sym::IsGuard() const {
  return IsNonTerminal() && RulePtr()->guard == this;
}

void Sym::Join(Sym* left, Sym* right) {
  if (left->next != nullptr) left->DeleteDigram();
  left->next = right;
  right->prev = left;
}

void Sym::DeleteDigram() {
  if (IsGuard() || next == nullptr || next->IsGuard()) return;
  auto it = ctx->digrams.find(KeyWith(next));
  if (it != ctx->digrams.end() && it->second == this) {
    ctx->digrams.erase(it);
  }
}

bool Sym::Check() {
  if (IsGuard() || next->IsGuard()) return false;
  auto [it, inserted] = ctx->digrams.try_emplace(KeyWith(next), this);
  if (inserted) return false;
  Sym* found = it->second;
  if (found == this) return false;
  // Overlapping digrams (e.g. "aaa") are not reduced.
  if (found->next != this) Match(this, found);
  return true;
}

void Sym::Substitute(Rule* r) {
  // Capture locals first: the first delete frees *this*, so no member may
  // be touched afterwards.
  Sym* q = prev;
  Context* c = ctx;
  // Drop this symbol and its successor, then splice in the non-terminal.
  delete q->next;
  delete q->next;
  q->InsertAfter(new Sym(r, c));
  if (!q->Check()) q->next->Check();
}

void Sym::Match(Sym* s, Sym* m) {
  Rule* r = nullptr;
  if (m->prev->IsGuard() && m->next->next->IsGuard()) {
    // The matching digram is exactly an existing rule's body: reuse it.
    r = m->prev->RulePtr();
    s->Substitute(r);
  } else {
    Context* ctx = s->ctx;
    r = new Rule(ctx);
    // Copy the digram into the new rule's body.
    if (s->IsNonTerminal()) {
      r->Last()->InsertAfter(new Sym(s->RulePtr(), ctx));
    } else {
      r->Last()->InsertAfter(new Sym(s->Terminal(), ctx));
    }
    if (s->next->IsNonTerminal()) {
      r->Last()->InsertAfter(new Sym(s->next->RulePtr(), ctx));
    } else {
      r->Last()->InsertAfter(new Sym(s->next->Terminal(), ctx));
    }
    m->Substitute(r);
    s->Substitute(r);
    ctx->digrams[r->First()->KeyWith(r->First()->next)] = r->First();
  }
  // Rule utility: a rule used once gets inlined.
  if (r->First()->IsNonTerminal() && r->First()->RulePtr()->use_count == 1) {
    r->First()->Expand();
  }
}

void Sym::Expand() {
  Sym* left = prev;
  Sym* right = next;
  Rule* r = RulePtr();
  Sym* first = r->First();
  Sym* last = r->Last();
  Context* c = ctx;

  DeleteDigram();  // Unindex (this, right).

  // Detach the body from the guard so ~Rule() doesn't free it.
  r->guard->next = r->guard;
  r->guard->prev = r->guard;
  delete r;

  value = 0;  // Neutralize so the destructor neither deuses nor unindexes.
  prev = nullptr;
  next = nullptr;
  delete this;

  // Relink manually: Join() would probe the freed guard/symbol through
  // DeleteDigram. The only indexed digram touched, (this, right), was
  // removed above; (left, this) starts at a guard and is never indexed.
  left->next = first;
  first->prev = left;
  last->next = right;
  right->prev = last;
  c->digrams[last->KeyWith(right)] = last;
}

// ---------------------------------------------------------------------
// Extraction: linearize the live grammar into GrammarRule structs and
// compute occurrence spans by a full expansion walk of rule S.

struct Extractor {
  std::unordered_map<const Rule*, int> ids;
  std::vector<const Rule*> order;

  int IdOf(const Rule* r) {
    auto it = ids.find(r);
    if (it != ids.end()) return it->second;
    const int id = static_cast<int>(order.size());
    ids.emplace(r, id);
    order.push_back(r);
    return id;
  }
};

}  // namespace

std::vector<const GrammarRule*> Grammar::RepeatedRules() const {
  std::vector<const GrammarRule*> out;
  for (const auto& r : rules_) {
    if (r.id != 0) out.push_back(&r);
  }
  return out;
}

std::vector<std::uint32_t> Grammar::Expand(int id) const {
  std::vector<std::uint32_t> out;
  // Iterative stack expansion to avoid deep recursion on long inputs.
  std::vector<std::pair<int, std::size_t>> stack{{id, 0}};
  while (!stack.empty()) {
    auto& [rid, pos] = stack.back();
    const auto& rhs = rules_[static_cast<std::size_t>(rid)].rhs;
    if (pos >= rhs.size()) {
      stack.pop_back();
      continue;
    }
    const std::int64_t v = rhs[pos++];
    if (v >= 0) {
      out.push_back(static_cast<std::uint32_t>(v));
    } else {
      stack.emplace_back(static_cast<int>(-v - 1), 0);
    }
  }
  return out;
}

std::string Grammar::ToString() const {
  std::ostringstream os;
  for (const auto& r : rules_) {
    if (r.id == 0) {
      os << 'S';
    } else {
      os << 'R' << r.id;
    }
    os << " ->";
    for (std::int64_t v : r.rhs) {
      if (v >= 0) {
        os << ' ' << v;
      } else {
        os << " R" << (-v - 1);
      }
    }
    os << "   [len=" << r.expanded_length
       << " occ=" << r.occurrences.size() << "]\n";
  }
  return os.str();
}

Grammar InferGrammar(std::span<const std::uint32_t> tokens) {
  if (tokens.empty()) {
    return Grammar({GrammarRule{0, {}, 0, {}}}, 0);
  }
  Context ctx;
  auto* start = new Rule(&ctx);
  for (std::uint32_t t : tokens) {
    start->Last()->InsertAfter(new Sym(t, &ctx));
    start->Last()->prev->Check();
  }

  // Assign dense ids (S first) and copy out the right-hand sides.
  Extractor ex;
  ex.IdOf(start);
  std::vector<GrammarRule> rules;
  for (std::size_t i = 0; i < ex.order.size(); ++i) {
    const Rule* r = ex.order[i];
    GrammarRule out;
    out.id = static_cast<int>(i);
    for (Sym* s = r->First(); !s->IsGuard(); s = s->next) {
      if (s->IsTerminal()) {
        out.rhs.push_back(static_cast<std::int64_t>(s->Terminal()));
      } else {
        out.rhs.push_back(-static_cast<std::int64_t>(ex.IdOf(s->RulePtr())) -
                          1);
      }
    }
    rules.push_back(std::move(out));
    // IdOf may have appended new rules to ex.order; the loop bound is
    // re-evaluated each iteration, so they are picked up.
  }

  // Expanded lengths, bottom-up via memoized walk.
  std::vector<std::size_t> len(rules.size(), 0);
  std::vector<char> done(rules.size(), 0);
  auto compute_len = [&](auto&& self, std::size_t id) -> std::size_t {
    if (done[id]) return len[id];
    std::size_t total = 0;
    for (std::int64_t v : rules[id].rhs) {
      total += (v >= 0) ? 1 : self(self, static_cast<std::size_t>(-v - 1));
    }
    done[id] = 1;
    len[id] = total;
    return total;
  };
  for (std::size_t i = 0; i < rules.size(); ++i) compute_len(compute_len, i);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rules[i].expanded_length = len[i];
  }

  // Occurrence spans: walk S fully; every non-terminal instance met at
  // terminal position p spans [p, p + len - 1].
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
  std::size_t pos = 0;
  while (!stack.empty()) {
    auto& [rid, idx] = stack.back();
    const auto& rhs = rules[rid].rhs;
    if (idx >= rhs.size()) {
      stack.pop_back();
      continue;
    }
    const std::int64_t v = rhs[idx++];
    if (v >= 0) {
      ++pos;
    } else {
      const auto child = static_cast<std::size_t>(-v - 1);
      rules[child].occurrences.push_back(
          RuleOccurrence{pos, pos + len[child] - 1});
      stack.emplace_back(child, 0);
    }
  }

  const std::size_t seq_len = tokens.size();

  // Reclaim the live symbol graph. Symbols are neutralized before delete
  // so their destructors skip digram/use-count side effects.
  // Walk each body by pointer identity against its own guard —
  // IsGuard() would dereference other (possibly already freed) rules.
  const std::vector<Rule*> live(ctx.live_rules.begin(),
                                ctx.live_rules.end());
  for (Rule* r : live) {
    Sym* s = r->guard->next;
    while (s != r->guard) {
      Sym* nx = s->next;
      s->value = 0;
      s->prev = nullptr;
      s->next = nullptr;
      delete s;
      s = nx;
    }
    r->guard->value = 0;  // Neutralize the guard's back-reference too.
    r->guard->next = r->guard;
    r->guard->prev = r->guard;
    delete r;
  }
  return Grammar(std::move(rules), seq_len);
}

}  // namespace rpm::grammar
