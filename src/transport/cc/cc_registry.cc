#include "transport/cc/cc_registry.h"

#include "common/logging.h"

namespace lcmp {

CcRegistry& CcRegistry::Instance() {
  static CcRegistry* registry = [] {
    auto* r = new CcRegistry();
    // Explicit registration: a pure static-initializer scheme is silently
    // dead-stripped when the algorithm objects sit in a static archive.
    RegisterDcqcnCc(*r);
    RegisterHpccCc(*r);
    RegisterTimelyCc(*r);
    RegisterDctcpCc(*r);
    RegisterLcpCc(*r);
    return r;
  }();
  return *registry;
}

void CcRegistry::Register(const std::string& token, Factory factory, bool needs_int) {
  LCMP_CHECK(!token.empty() && token.find('/') == std::string::npos);
  const auto [it, inserted] = entries_.emplace(token, Entry{std::move(factory), needs_int});
  LCMP_CHECK(inserted);  // duplicate registration is a wiring bug
  (void)it;
  tokens_.push_back(token);
}

bool CcRegistry::Known(const std::string& token) const {
  return entries_.find(token) != entries_.end();
}

std::unique_ptr<CongestionControl> CcRegistry::Create(const std::string& token,
                                                      const CcTuning& tuning) const {
  const auto it = entries_.find(token);
  LCMP_CHECK(it != entries_.end());
  return it->second.factory(tuning);
}

bool CcRegistry::NeedsInt(const std::string& token) const {
  const auto it = entries_.find(token);
  return it != entries_.end() && it->second.needs_int;
}

std::string CcRegistry::TokensJoined() const {
  std::string out;
  for (const std::string& token : tokens_) {
    if (!out.empty()) {
      out += " | ";
    }
    out += token;
  }
  return out;
}

void RegisterDcqcnCc(CcRegistry& registry) {
  registry.Register(
      "dcqcn", [](const CcTuning& t) { return std::make_unique<Dcqcn>(t.dcqcn); },
      /*needs_int=*/false);
}

void RegisterHpccCc(CcRegistry& registry) {
  registry.Register(
      "hpcc", [](const CcTuning& t) { return std::make_unique<Hpcc>(t.hpcc); },
      /*needs_int=*/true);
}

void RegisterTimelyCc(CcRegistry& registry) {
  registry.Register(
      "timely", [](const CcTuning& t) { return std::make_unique<Timely>(t.timely); },
      /*needs_int=*/false);
}

void RegisterDctcpCc(CcRegistry& registry) {
  registry.Register(
      "dctcp", [](const CcTuning& t) { return std::make_unique<Dctcp>(t.dctcp); },
      /*needs_int=*/false);
}

void RegisterLcpCc(CcRegistry& registry) {
  registry.Register(
      "lcp", [](const CcTuning& t) { return std::make_unique<Lcp>(t.lcp); },
      /*needs_int=*/false);
}

bool ParseCcToken(const std::string& text, std::string* token, std::string* error) {
  if (CcRegistry::Instance().Known(text)) {
    *token = text;
    return true;
  }
  if (error != nullptr) {
    *error = "unknown cc '" + text + "' (want " + CcRegistry::Instance().TokensJoined() + ")";
  }
  return false;
}

std::string SegmentCcSpec::Token() const {
  return uniform() ? inter : inter + "/" + intra;
}

bool SegmentCcSpec::Parse(const std::string& text, SegmentCcSpec* out, std::string* error) {
  const size_t slash = text.find('/');
  if (slash == std::string::npos) {
    std::string token;
    if (!ParseCcToken(text, &token, error)) {
      return false;
    }
    out->inter = token;
    out->intra = token;
    return true;
  }
  return ParseCcToken(text.substr(0, slash), &out->inter, error) &&
         ParseCcToken(text.substr(slash + 1), &out->intra, error);
}

bool CcNeedsInt(const SegmentCcSpec& spec) {
  const CcRegistry& registry = CcRegistry::Instance();
  return registry.NeedsInt(spec.inter) || registry.NeedsInt(spec.intra);
}

}  // namespace lcmp
