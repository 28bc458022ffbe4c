#include "scenario/scenario.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <variant>

#include "scenario/json.h"
#include "scenario/runner.h"
#include "sweep/result_table.h"

namespace pw::scenario {
namespace {

const std::vector<std::string> kPresets{"tpu_default", "gpu_vm", "config_a",
                                        "config_b"};
const std::vector<std::string> kFaultKinds{"device_crash", "straggler",
                                           "link_degrade", "partition"};

bool Contains(const std::vector<std::string>& names, const std::string& s) {
  for (const std::string& n : names) {
    if (n == s) return true;
  }
  return false;
}

// Location of `key`'s value in `obj`, or of `obj` itself when absent (an
// overlay inheriting a bad value reports at the overlay).
SourceLoc ValueLoc(const Json& obj, const char* key) {
  const Json* v = obj.Find(key);
  return v != nullptr ? v->loc() : obj.loc();
}

// ---------------------------------------------------------------------------
// Field tables.
//
// Each spec's fields are declared once, as {key, member, min} rows. One
// generic reader (FieldReader::Fields) parses a table, one generic emitter
// (EmitFields) writes it back canonically, and each spec's defaulted
// operator== decides what a quick overlay changes. A new spec field is one
// struct member plus one row.

template <typename T>
using Member =
    std::variant<int T::*, std::int64_t T::*, double T::*, bool T::*,
                 std::string T::*, std::optional<double> T::*,
                 std::vector<FaultPlanEvent> T::*>;

template <typename T>
struct Field {
  const char* key;
  Member<T> member;
  // Inclusive lower bound on numeric values.
  double min = -std::numeric_limits<double>::infinity();
};

template <typename T>
using FieldTable = std::vector<Field<T>>;

// kFields<Spec>: the one field list per spec, in canonical emit order.
template <typename T>
extern const FieldTable<T> kFields;

template <>
const FieldTable<ClusterSpec> kFields<ClusterSpec> = {
    {"preset", &ClusterSpec::preset},
    {"islands", &ClusterSpec::islands, 1},
    {"hosts_per_island", &ClusterSpec::hosts_per_island, 1},
    {"devices_per_host", &ClusterSpec::devices_per_host, 1},
    {"host_jitter_frac", &ClusterSpec::host_jitter_frac, 0},
    {"hbm_capacity_mib", &ClusterSpec::hbm_capacity_mib, 0},
    {"host_dram_capacity_mib", &ClusterSpec::host_dram_capacity_mib, 0},
};

// The cluster's nested "ici_flow" and "dcn_clos" blocks.
const FieldTable<ClusterSpec> kIciFlowFields = {
    {"enabled", &ClusterSpec::ici_flow},
    {"dims", &ClusterSpec::ici_flow_dims, 2},
};
const FieldTable<ClusterSpec> kDcnClosFields = {
    {"enabled", &ClusterSpec::dcn_clos},
    {"hosts_per_leaf", &ClusterSpec::clos_hosts_per_leaf, 1},
    {"num_spines", &ClusterSpec::clos_num_spines, 1},
    {"oversubscription", &ClusterSpec::clos_oversubscription, 0},
};

template <>
const FieldTable<MultitenantSpec> kFields<MultitenantSpec> = {
    {"nominal_pod_per_sec", &MultitenantSpec::nominal_pod_per_sec, 0},
    {"max_inflight_gangs", &MultitenantSpec::max_inflight_gangs, 1},
    {"warmup_ms", &MultitenantSpec::warmup_ms, 0},
    {"horizon_ms", &MultitenantSpec::horizon_ms, 0},
    {"queue_capacity", &MultitenantSpec::queue_capacity, 1},
    {"max_outstanding", &MultitenantSpec::max_outstanding, 1},
    {"retry_max_attempts", &MultitenantSpec::retry_max_attempts, 1},
    {"retry_initial_backoff_us", &MultitenantSpec::retry_initial_backoff_us,
     0},
    {"retry_max_backoff_ms", &MultitenantSpec::retry_max_backoff_ms, 0},
    {"step_us", &MultitenantSpec::step_us, 0},
    {"collective_bytes", &MultitenantSpec::collective_bytes, 0},
    {"seed_base", &MultitenantSpec::seed_base, 0},
};

// Every key is legal here; ReadFaultPlanEvent then rejects the target keys
// the event's kind does not take.
template <>
const FieldTable<FaultPlanEvent> kFields<FaultPlanEvent> = {
    {"kind", &FaultPlanEvent::kind},
    {"at_ms", &FaultPlanEvent::at_ms, 0},
    {"window_ms", &FaultPlanEvent::window_ms, 0},
    {"device", &FaultPlanEvent::device, 0},
    {"host", &FaultPlanEvent::host, 0},
    {"severity", &FaultPlanEvent::severity},
};

template <>
const FieldTable<FaultsSpec> kFields<FaultsSpec> = {
    {"horizon_ms", &FaultsSpec::horizon_ms, 0},
    {"min_window_ms", &FaultsSpec::min_window_ms, 0},
    {"max_window_ms", &FaultsSpec::max_window_ms, 0},
    {"link_degrades", &FaultsSpec::link_degrades, 0},
    {"always_recover", &FaultsSpec::always_recover},
    {"retry_max_attempts", &FaultsSpec::retry_max_attempts, 1},
    {"retry_initial_backoff_us", &FaultsSpec::retry_initial_backoff_us, 0},
    {"step_us", &FaultsSpec::step_us, 0},
    {"collective_kib", &FaultsSpec::collective_kib, 0},
    {"seed_base", &FaultsSpec::seed_base, 0},
    {"fault_plan", &FaultsSpec::fault_plan},
};

template <>
const FieldTable<OversubSpec> kFields<OversubSpec> = {
    {"tenants", &OversubSpec::tenants, 1},
    {"weights_per_shard_mib", &OversubSpec::weights_per_shard_mib, 0},
    {"output_per_shard_mib", &OversubSpec::output_per_shard_mib, 0},
    {"working_headroom_mib", &OversubSpec::working_headroom_mib, 0},
    {"requests_per_tenant", &OversubSpec::requests_per_tenant, 1},
    {"step_us", &OversubSpec::step_us, 0},
};

template <>
const FieldTable<ServingSpec> kFields<ServingSpec> = {
    {"kv_bytes_per_token", &ServingSpec::kv_bytes_per_token, 1},
    {"max_batch", &ServingSpec::max_batch, 1},
    {"token_budget", &ServingSpec::token_budget, 1},
    {"min_prefill_tokens", &ServingSpec::min_prefill_tokens, 1},
    {"max_prefill_tokens", &ServingSpec::max_prefill_tokens, 1},
    {"min_decode_tokens", &ServingSpec::min_decode_tokens, 1},
    {"max_decode_tokens", &ServingSpec::max_decode_tokens, 1},
    {"horizon_ms", &ServingSpec::horizon_ms, 0},
    {"hbm_frac_of_working_set", &ServingSpec::hbm_frac_of_working_set, 0},
    {"hbm_headroom_kib", &ServingSpec::hbm_headroom_kib, 0},
    {"arrival_seed_base", &ServingSpec::arrival_seed_base, 0},
    {"arrival_seed_stride", &ServingSpec::arrival_seed_stride, 0},
    {"token_seed_base", &ServingSpec::token_seed_base, 0},
};

template <>
const FieldTable<DisaggSpec> kFields<DisaggSpec> = {
    {"model", &DisaggSpec::model},
    {"max_batch", &DisaggSpec::max_batch, 1},
    {"token_budget", &DisaggSpec::token_budget, 1},
    {"min_prefill_tokens", &DisaggSpec::min_prefill_tokens, 1},
    {"max_prefill_tokens", &DisaggSpec::max_prefill_tokens, 1},
    {"min_decode_tokens", &DisaggSpec::min_decode_tokens, 1},
    {"max_decode_tokens", &DisaggSpec::max_decode_tokens, 1},
    {"horizon_ms", &DisaggSpec::horizon_ms, 0},
    {"hbm_headroom_mib", &DisaggSpec::hbm_headroom_mib, 0},
    {"arrival_seed_base", &DisaggSpec::arrival_seed_base, 0},
    {"arrival_seed_stride", &DisaggSpec::arrival_seed_stride, 0},
    {"token_seed_base", &DisaggSpec::token_seed_base, 0},
};

template <>
const FieldTable<NetworkSpec> kFields<NetworkSpec> = {
    {"message_mib", &NetworkSpec::message_mib, 0},
    {"hosts", &NetworkSpec::hosts, 2},
    {"hosts_per_leaf", &NetworkSpec::hosts_per_leaf, 1},
    {"num_spines", &NetworkSpec::num_spines, 1},
};

template <>
const FieldTable<Fig12Spec> kFields<Fig12Spec> = {
    {"steps", &Fig12Spec::steps, 1},
    {"chunks", &Fig12Spec::chunks, 1},
    {"max_inflight_gangs", &Fig12Spec::max_inflight_gangs, 1},
    {"model_parallel", &Fig12Spec::model_parallel, 1},
};

// One family section: its top-level key, which is also the family name,
// and the Scenario member it parses into.
template <typename T>
struct Section {
  const char* key;
  WithQuick<T> Scenario::*member;
};

// Every family section in canonical order; the keys are the known families.
const std::tuple kSections{
    Section{"multitenant", &Scenario::multitenant},
    Section{"faults", &Scenario::faults},
    Section{"oversub", &Scenario::oversub},
    Section{"serving", &Scenario::serving},
    Section{"serving_disagg", &Scenario::disagg},
    Section{"network", &Scenario::network},
    Section{"fig12_twoisland", &Scenario::fig12},
};

template <typename Fn>
void ForEachSection(Fn&& fn) {
  std::apply([&](const auto&... section) { (fn(section), ...); }, kSections);
}

// ---------------------------------------------------------------------------
// Typed field extraction with unknown-key detection.
//
// Every object is read through one FieldReader; Finish() then reports any
// member that was never registered, with a "did you mean" suggestion over
// the registered keys. The same table read serves a full section and its
// "quick" overlay (the overlay leaves absent fields at their incoming
// values, which are the full-spec values).

void ReadFaultPlan(const Json& arr, std::vector<FaultPlanEvent>* out,
                   DiagnosticEngine* diags);

class FieldReader {
 public:
  FieldReader(const Json& obj, DiagnosticEngine* diags)
      : obj_(obj), diags_(diags) {}

  // Reads every row of `table` present in the object into *s.
  template <typename T>
  void Fields(const FieldTable<T>& table, T* s) {
    for (const Field<T>& f : table) {
      std::visit([&](auto member) { Read(f.key, &(s->*member), f.min); },
                 f.member);
    }
  }

  void String(const char* key, std::string* out, SourceLoc* loc = nullptr) {
    const Json* v = Get(key, &Json::is_string, "string");
    if (v == nullptr) return;
    *out = v->string_value();
    if (loc != nullptr) *loc = v->loc();
  }

  // Registers `key` and returns it when present and an object/array.
  const Json* Object(const char* key) {
    return Get(key, &Json::is_object, "object");
  }
  const Json* Array(const char* key) {
    return Get(key, &Json::is_array, "array");
  }

  // Reports unknown keys with a suggestion over everything registered.
  void Finish() {
    for (const Json::Member& m : obj_.members()) {
      if (!Contains(keys_, m.key)) {
        diags_->Error(m.key_loc, "unknown key '" + m.key + "'" +
                                     DidYouMeanSuffix(m.key, keys_));
      }
    }
  }

 private:
  void Read(const char* key, int* out, double min) {
    std::int64_t v = *out;
    Read(key, &v, min);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      diags_->Error(obj_.KeyLoc(key),
                    std::string("key '") + key + "' is out of int range");
      return;
    }
    *out = static_cast<int>(v);
  }

  void Read(const char* key, std::int64_t* out, double min) {
    const Json* v = Get(key, &Json::is_int, "int");
    if (v == nullptr) return;
    if (v->int_value() < min) {
      BelowMin(*v, key, min, std::to_string(v->int_value()));
      return;
    }
    *out = v->int_value();
  }

  // Returns whether *out was assigned.
  bool Read(const char* key, double* out, double min) {
    const Json* v = Get(key, &Json::is_number, "number");
    if (v == nullptr) return false;
    if (v->number_value() < min) {
      BelowMin(*v, key, min, FormatNumber(v->number_value()));
      return false;
    }
    *out = v->number_value();
    return true;
  }

  void Read(const char* key, std::optional<double>* out, double min) {
    double v = 0;
    if (Read(key, &v, min)) *out = v;
  }

  void Read(const char* key, bool* out, double) {
    if (const Json* v = Get(key, &Json::is_bool, "bool")) *out = v->bool_value();
  }

  void Read(const char* key, std::string* out, double) { String(key, out); }

  void Read(const char* key, std::vector<FaultPlanEvent>* out, double) {
    if (const Json* arr = Array(key)) ReadFaultPlan(*arr, out, diags_);
  }

  // Registers `key`; returns its value when present and of the wanted kind,
  // reporting a type error otherwise.
  const Json* Get(const char* key, bool (Json::*is_kind)() const,
                  const char* want) {
    keys_.emplace_back(key);
    const Json* v = obj_.Find(key);
    if (v == nullptr || (v->*is_kind)()) return v;
    diags_->Error(v->loc(), std::string("key '") + key + "' expects " + want +
                                ", got " + v->kind_name());
    return nullptr;
  }

  void BelowMin(const Json& v, const char* key, double min,
                const std::string& got) {
    diags_->Error(v.loc(), std::string("key '") + key + "' must be >= " +
                               FormatNumber(min) + " (got " + got + ")");
  }

  static std::string FormatNumber(double d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", d);
    return buf;
  }

  const Json& obj_;
  DiagnosticEngine* diags_;
  std::vector<std::string> keys_;
};

// ---------------------------------------------------------------------------
// Rules a table cannot express, applied after the table read.

// Whether a fault kind takes `key`: device_crash/straggler target a device,
// link_degrade/partition a host, and only straggler/link_degrade carry a
// severity. Parse rejects the rest, and Serialize writes exactly these, so
// a parsed event serializes back to the keys it was written with.
bool AppliesTo(const std::string& kind, const std::string& key) {
  const bool device_kind = kind == "device_crash" || kind == "straggler";
  if (key == "device") return device_kind;
  if (key == "host") return !device_kind;
  if (key == "severity") return kind == "straggler" || kind == "link_degrade";
  return true;
}

void ReadFaultPlanEvent(const Json& obj, FaultPlanEvent* e,
                        DiagnosticEngine* diags) {
  FieldReader r(obj, diags);
  r.Fields(kFields<FaultPlanEvent>, e);
  r.Finish();

  if (!Contains(kFaultKinds, e->kind)) {
    diags->Error(ValueLoc(obj, "kind"),
                 "unknown fault kind '" + e->kind + "'" +
                     DidYouMeanSuffix(e->kind, kFaultKinds));
    return;
  }
  e->target.loc = obj.KeyLoc(AppliesTo(e->kind, "device") ? "device" : "host");
  for (const char* key : {"device", "host", "severity"}) {
    if (obj.Find(key) != nullptr && !AppliesTo(e->kind, key)) {
      diags->Error(obj.KeyLoc(key), std::string("'") + key +
                                        "' does not apply to kind '" +
                                        e->kind + "'");
    }
  }
  if (e->kind == "straggler" && e->severity < 1.0) {
    diags->Error(obj.KeyLoc("severity"),
                 "straggler 'severity' is a compute multiplier; "
                 "it must be >= 1");
  } else if (e->kind == "link_degrade" &&
             (e->severity <= 0.0 || e->severity > 1.0)) {
    diags->Error(obj.KeyLoc("severity"),
                 "link_degrade 'severity' is a bandwidth scale; "
                 "it must be in (0, 1]");
  }
}

void ReadFaultPlan(const Json& arr, std::vector<FaultPlanEvent>* out,
                   DiagnosticEngine* diags) {
  // A fault_plan in a quick overlay replaces the full plan wholesale
  // (merging timelines element-wise would be unintelligible).
  out->clear();
  for (const Json& entry : arr.array()) {
    if (!entry.is_object()) {
      diags->Error(entry.loc(),
                   std::string("fault_plan entries expect object, got ") +
                       entry.kind_name());
      continue;
    }
    FaultPlanEvent e;
    ReadFaultPlanEvent(entry, &e, diags);
    out->push_back(e);
  }
}

void ReadCluster(const Json& obj, ClusterSpec* s, DiagnosticEngine* diags) {
  FieldReader r(obj, diags);
  r.Fields(kFields<ClusterSpec>, s);
  if (obj.Find("preset") != nullptr && !Contains(kPresets, s->preset)) {
    diags->Error(ValueLoc(obj, "preset"),
                 "unknown cluster preset '" + s->preset + "'" +
                     DidYouMeanSuffix(s->preset, kPresets));
  }
  if (const Json* flow = r.Object("ici_flow")) {
    FieldReader fr(*flow, diags);
    fr.Fields(kIciFlowFields, s);
    if (s->ici_flow_dims > 3) {
      diags->Error(flow->KeyLoc("dims"), "key 'dims' must be 2 or 3");
    }
    fr.Finish();
  }
  if (const Json* clos = r.Object("dcn_clos")) {
    FieldReader cr(*clos, diags);
    cr.Fields(kDcnClosFields, s);
    cr.Finish();
  }
  r.Finish();
}

// Cross-field rules a table cannot express, run after each table read
// (full section and overlay alike).
template <typename T>
void CheckSpec(const Json& obj, const T& s, DiagnosticEngine* diags) {
  if constexpr (std::is_same_v<T, FaultsSpec>) {
    if (s.max_window_ms < s.min_window_ms) {
      diags->Error(obj.KeyLoc("max_window_ms"),
                   "'max_window_ms' must be >= 'min_window_ms'");
    }
  }
  if constexpr (std::is_same_v<T, DisaggSpec>) {
    if (s.model != "decoder3b") {
      diags->Error(ValueLoc(obj, "model"),
                   "unknown model '" + s.model + "'; known models: decoder3b");
    }
  }
  if constexpr (std::is_same_v<T, ServingSpec> ||
                std::is_same_v<T, DisaggSpec>) {
    if (s.max_prefill_tokens < s.min_prefill_tokens) {
      diags->Error(obj.KeyLoc("max_prefill_tokens"),
                   "'max_prefill_tokens' must be >= 'min_prefill_tokens'");
    }
    if (s.max_decode_tokens < s.min_decode_tokens) {
      diags->Error(obj.KeyLoc("max_decode_tokens"),
                   "'max_decode_tokens' must be >= 'min_decode_tokens'");
    }
  }
}

// Reads one spec object: its table, unknown keys, then the cross-field
// rules. Returns the section's "quick" overlay object when `has_overlay`.
template <typename T>
const Json* ReadSpec(const Json& obj, T* s, DiagnosticEngine* diags,
                     bool has_overlay) {
  FieldReader r(obj, diags);
  r.Fields(kFields<T>, s);
  const Json* quick = has_overlay ? r.Object("quick") : nullptr;
  r.Finish();
  CheckSpec(obj, *s, diags);
  return quick;
}

template <typename T>
void ReadSection(const Json& obj, WithQuick<T>* out, DiagnosticEngine* diags) {
  out->present = true;
  out->loc = obj.loc();
  const Json* quick = ReadSpec(obj, &out->full, diags, /*has_overlay=*/true);
  out->quick = out->full;
  if (quick != nullptr) {
    ReadSpec(*quick, &out->quick, diags, /*has_overlay=*/false);
  }
}

// --- Sweep axes ------------------------------------------------------------

void WidenToDouble(std::vector<sweep::ParamValue>* values) {
  for (sweep::ParamValue& v : *values) {
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      v = static_cast<double>(*i);
    }
  }
}

// Reads one "values"/"quick_values" array into ParamValues. Numeric arrays
// mixing ints and doubles promote everything to double; otherwise elements
// must agree in kind (KindOfValue of any element).
bool ReadAxisValues(const Json& arr, const char* key,
                    std::vector<sweep::ParamValue>* out,
                    DiagnosticEngine* diags) {
  if (arr.array().empty()) {
    diags->Error(arr.loc(), std::string("'") + key + "' must not be empty");
    return false;
  }
  out->clear();
  bool any_int = false, any_double = false, any_string = false;
  for (const Json& v : arr.array()) {
    if (v.is_int()) {
      out->emplace_back(v.int_value());
      any_int = true;
    } else if (v.is_double()) {
      out->emplace_back(v.number_value());
      any_double = true;
    } else if (v.is_string()) {
      out->emplace_back(v.string_value());
      any_string = true;
    } else {
      diags->Error(v.loc(), std::string("'") + key +
                                "' elements must be numbers or strings, got " +
                                v.kind_name());
      return false;
    }
  }
  if (any_string && (any_int || any_double)) {
    diags->Error(arr.loc(), std::string("'") + key +
                                "' mixes strings and numbers");
    return false;
  }
  if (any_double) WidenToDouble(out);
  return true;
}

void ReadSweep(const Json& obj, Scenario* out, DiagnosticEngine* diags) {
  out->sweep_loc = obj.loc();
  FieldReader r(obj, diags);
  const Json* axes = r.Array("axes");
  r.Finish();
  if (axes == nullptr) {
    if (obj.Find("axes") == nullptr) {
      diags->Error(obj.loc(), "'sweep' requires an 'axes' array");
    }
    return;
  }
  for (const Json& axis_obj : axes->array()) {
    if (!axis_obj.is_object()) {
      diags->Error(axis_obj.loc(), std::string("axis entries expect object, "
                                               "got ") +
                                       axis_obj.kind_name());
      continue;
    }
    SweepAxis axis;
    axis.loc = axis_obj.loc();
    FieldReader ar(axis_obj, diags);
    ar.String("name", &axis.name);
    const Json* values = ar.Array("values");
    const Json* quick = ar.Array("quick_values");
    ar.Finish();
    if (axis.name.empty()) {
      diags->Error(axis_obj.loc(), "axis requires a non-empty 'name'");
      continue;
    }
    for (const SweepAxis& prev : out->sweep) {
      if (prev.name == axis.name) {
        diags->Error(axis_obj.KeyLoc("name"),
                     "duplicate axis '" + axis.name + "'");
      }
    }
    if (values == nullptr) {
      diags->Error(axis_obj.loc(),
                   "axis '" + axis.name + "' requires a 'values' array");
      continue;
    }
    if (!ReadAxisValues(*values, "values", &axis.values, diags)) continue;
    if (quick != nullptr) {
      if (!ReadAxisValues(*quick, "quick_values", &axis.quick_values,
                          diags)) {
        continue;
      }
      // Numeric widening is symmetric: when either array is double, whole
      // numbers in both promote ([1, 4] beside [0.5] and the reverse both
      // parse); strings must agree.
      if (KindOfValue(axis.values.front()) == AxisKind::kDouble ||
          KindOfValue(axis.quick_values.front()) == AxisKind::kDouble) {
        WidenToDouble(&axis.values);
        WidenToDouble(&axis.quick_values);
      }
      const AxisKind kind = KindOfValue(axis.values.front());
      const AxisKind qkind = KindOfValue(axis.quick_values.front());
      if (qkind != kind) {
        diags->Error(quick->loc(),
                     "axis '" + axis.name + "': 'quick_values' are " +
                         AxisKindName(qkind) + " but 'values' are " +
                         AxisKindName(kind));
        continue;
      }
    }
    out->sweep.push_back(std::move(axis));
  }
}

// ---------------------------------------------------------------------------
// Canonical serialization.

// Shortest representation that parses back to the same double, with a
// ".0" suffix for integral values so the canonical form re-parses as a
// double (round-trip stability of the int/double distinction).
std::string FormatCanonicalDouble(double d) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  std::string s = buf;
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

std::string FormatParamValue(const sweep::ParamValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return FormatCanonicalDouble(*d);
  return sweep::JsonQuote(std::get<std::string>(v));
}

// Tiny canonical-JSON emitter: 2-space indent, one member per line, scalar
// arrays inline.
class JsonWriter {
 public:
  std::string Take() { return std::move(out_); }

  void BeginObject() {
    out_ += "{";
    stack_.push_back(true);
  }
  void EndObject() { Close("}"); }
  void Key(const std::string& k) {
    NextElement();
    out_ += sweep::JsonQuote(k);
    out_ += ": ";
  }
  void String(const std::string& v) { out_ += sweep::JsonQuote(v); }
  void Int(std::int64_t v) { out_ += std::to_string(v); }
  void Double(double v) { out_ += FormatCanonicalDouble(v); }
  void Bool(bool v) { out_ += v ? "true" : "false"; }

  void InlineArray(const std::vector<sweep::ParamValue>& values) {
    out_ += "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out_ += ", ";
      out_ += FormatParamValue(values[i]);
    }
    out_ += "]";
  }

  // Array of objects, one object per element, emitted via `fn`.
  template <typename E, typename Fn>
  void ObjectArray(const std::vector<E>& items, Fn fn) {
    out_ += "[";
    stack_.push_back(true);
    for (const E& item : items) {
      NextElement();
      fn(item);
    }
    Close("]");
  }

 private:
  // Comma after the previous element, then a new line indented to the
  // current nesting depth. Appends piece by piece: GCC 12 at -O3 reports a
  // false -Wrestrict on `"\n" + std::string` temporaries.
  void NextElement() {
    if (!stack_.back()) out_ += ",";
    stack_.back() = false;
    NewLine();
  }
  void NewLine() {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  void Close(const char* bracket) {
    stack_.pop_back();
    NewLine();
    out_ += bracket;
  }

  std::string out_;
  std::vector<bool> stack_;  // per level: no element emitted yet
};

void EmitFaultPlan(JsonWriter* w, const std::vector<FaultPlanEvent>& plan);

// Unset optionals and empty lists are left out of a full spec.
template <typename V>
bool IsUnset(const V&) {
  return false;
}
bool IsUnset(const std::optional<double>& v) { return !v.has_value(); }
bool IsUnset(const std::vector<FaultPlanEvent>& v) { return v.empty(); }

// Emits `key: value` for one row. Against a baseline only a differing value
// is emitted, so quick overlays canonicalize to their diff vs the full spec
// (an emptied fault_plan included).
template <typename T>
void EmitField(JsonWriter* w, const Field<T>& f, const T& s,
               const T* base = nullptr) {
  std::visit(
      [&](auto member) {
        const auto& v = s.*member;
        using V = std::remove_cvref_t<decltype(v)>;
        if (base != nullptr ? v == base->*member : IsUnset(v)) return;
        w->Key(f.key);
        if constexpr (std::is_same_v<V, bool>) {
          w->Bool(v);
        } else if constexpr (std::is_integral_v<V>) {
          w->Int(v);
        } else if constexpr (std::is_same_v<V, double>) {
          w->Double(v);
        } else if constexpr (std::is_same_v<V, std::optional<double>>) {
          w->Double(v.value());
        } else if constexpr (std::is_same_v<V, std::string>) {
          w->String(v);
        } else {
          EmitFaultPlan(w, v);
        }
      },
      f.member);
}

template <typename T>
void EmitFields(JsonWriter* w, const FieldTable<T>& table, const T& s,
                const T* base = nullptr) {
  for (const Field<T>& f : table) EmitField(w, f, s, base);
}

void EmitFaultPlan(JsonWriter* w, const std::vector<FaultPlanEvent>& plan) {
  w->ObjectArray(plan, [w](const FaultPlanEvent& e) {
    w->BeginObject();
    for (const Field<FaultPlanEvent>& f : kFields<FaultPlanEvent>) {
      if (AppliesTo(e.kind, f.key)) EmitField(w, f, e);
    }
    w->EndObject();
  });
}

// A nested cluster block is written only when a field leaves its default.
void EmitClusterBlock(JsonWriter* w, const char* key,
                      const FieldTable<ClusterSpec>& table,
                      const ClusterSpec& c) {
  const ClusterSpec defaults;
  bool set = false;
  for (const Field<ClusterSpec>& f : table) {
    set |= std::visit([&](auto m) { return !(c.*m == defaults.*m); },
                      f.member);
  }
  if (!set) return;
  w->Key(key);
  w->BeginObject();
  EmitFields(w, table, c);
  w->EndObject();
}

template <typename T>
void EmitSection(JsonWriter* w, const char* key, const WithQuick<T>& section) {
  if (!section.present) return;
  w->Key(key);
  w->BeginObject();
  EmitFields(w, kFields<T>, section.full);
  // The quick overlay reduces to its diff vs the full spec; omit when empty.
  if (section.quick != section.full) {
    w->Key("quick");
    w->BeginObject();
    EmitFields(w, kFields<T>, section.quick, &section.full);
    w->EndObject();
  }
  w->EndObject();
}

}  // namespace

sweep::ParamGrid Scenario::Grid(bool quick) const {
  sweep::ParamGrid grid;
  for (const SweepAxis& axis : sweep) {
    grid.Axis(axis.name, axis.For(quick));
  }
  return grid;
}

std::string Scenario::Serialize() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(name);
  w.Key("family");
  w.String(family);
  if (!description.empty()) {
    w.Key("description");
    w.String(description);
  }

  w.Key("cluster");
  w.BeginObject();
  EmitFields(&w, kFields<ClusterSpec>, cluster);
  EmitClusterBlock(&w, "ici_flow", kIciFlowFields, cluster);
  EmitClusterBlock(&w, "dcn_clos", kDcnClosFields, cluster);
  w.EndObject();

  ForEachSection([&](const auto& section) {
    EmitSection(&w, section.key, this->*section.member);
  });

  w.Key("sweep");
  w.BeginObject();
  w.Key("axes");
  w.ObjectArray(sweep, [&w](const SweepAxis& axis) {
    w.BeginObject();
    w.Key("name");
    w.String(axis.name);
    w.Key("values");
    w.InlineArray(axis.values);
    if (!axis.quick_values.empty() && axis.quick_values != axis.values) {
      w.Key("quick_values");
      w.InlineArray(axis.quick_values);
    }
    w.EndObject();
  });
  w.EndObject();

  w.EndObject();
  std::string out = w.Take();
  out += "\n";
  return out;
}

bool ParseScenario(const std::string& text, Scenario* out,
                   DiagnosticEngine* diags) {
  Json root;
  if (!ParseJson(text, &root, diags)) return false;
  if (!root.is_object()) {
    diags->Error(root.loc(), std::string("top level expects object, got ") +
                                 root.kind_name());
    return false;
  }
  *out = Scenario();
  out->file = diags->file();

  FieldReader r(root, diags);
  r.String("name", &out->name, &out->name_loc);
  r.String("family", &out->family, &out->family_loc);
  r.String("description", &out->description);
  const Json* cluster = r.Object("cluster");
  const Json* sweep_obj = r.Object("sweep");
  std::vector<std::string> families;
  ForEachSection([&](const auto& section) {
    r.Object(section.key);
    families.emplace_back(section.key);
  });
  r.Finish();
  // A section's object, or nullptr when absent or mistyped (Finish above
  // reported the latter).
  const auto section_obj = [&root](const char* key) -> const Json* {
    const Json* v = root.Find(key);
    return v != nullptr && v->is_object() ? v : nullptr;
  };

  if (out->name.empty()) {
    diags->Error(root.loc(), "scenario requires a non-empty 'name'");
  } else {
    for (char c : out->name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
      if (!ok) {
        diags->Error(out->name_loc,
                     "'name' must match [A-Za-z0-9_-]+ (it names the "
                     "BENCH_<name>.json result file and the query-path root)");
        break;
      }
    }
  }
  if (out->family.empty()) {
    diags->Error(root.loc(), "scenario requires a 'family'");
  } else if (!Contains(families, out->family)) {
    diags->Error(out->family_loc,
                 "unknown family '" + out->family + "'" +
                     DidYouMeanSuffix(out->family, families));
  }

  if (cluster != nullptr) ReadCluster(*cluster, &out->cluster, diags);
  ForEachSection([&](const auto& section) {
    if (const Json* obj = section_obj(section.key)) {
      ReadSection(*obj, &(out->*section.member), diags);
    }
  });
  // A section for a family this scenario does not run is almost certainly a
  // mistake (its knobs would be silently ignored).
  ForEachSection([&](const auto& section) {
    if (section_obj(section.key) != nullptr && out->family != section.key) {
      diags->Error(root.KeyLoc(section.key),
                   std::string("section '") + section.key +
                       "' does not match family '" + out->family + "'");
    }
  });

  if (sweep_obj == nullptr) {
    if (root.Find("sweep") == nullptr) {
      diags->Error(root.loc(), "scenario requires a 'sweep' section");
    }
  } else {
    ReadSweep(*sweep_obj, out, diags);
  }

  return diags->ok();
}

bool LoadScenarioFile(const std::string& path, Scenario* out,
                      DiagnosticEngine* diags) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *diags = DiagnosticEngine(path, "");
    diags->Error({0, 0}, "cannot open file");
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *diags = DiagnosticEngine(path, buf.str());
  return ParseScenario(buf.str(), out, diags);
}

std::string ScenarioDir() {
  if (const char* env = std::getenv("PWSIM_SCENARIO_DIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
#ifdef PWSIM_SCENARIO_DIR_DEFAULT
  return PWSIM_SCENARIO_DIR_DEFAULT;
#else
  return "scenarios";
#endif
}

std::string DefaultScenarioPath(const std::string& name) {
  return ScenarioDir() + "/" + name + ".json";
}

}  // namespace pw::scenario
