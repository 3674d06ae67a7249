#include "net/protocol.h"

#include <cstdio>
#include <sstream>

#include "base/hex.h"
#include "base/parse_util.h"
#include "constraints/dichotomy.h"
#include "service/service.h"

namespace picola::net {

RequestLine parse_request_line(const std::string& line) {
  RequestLine r;
  std::istringstream ls(line);
  std::string tok;
  ls >> r.path;
  while (ls >> tok) {
    if (tok == "--restarts" && (ls >> tok)) {
      auto v = parse_int(tok);
      if (v && *v >= 1) {
        r.restarts = *v;
        continue;
      }
    } else if (tok == "--backend" && (ls >> tok)) {
      if (auto k = portfolio::parse_backend_kind(tok)) {
        r.backend = k;
        continue;
      }
    }
    r.error = "bad request options";
    break;
  }
  return r;
}

std::string error_line(const std::string& path, const std::string& message) {
  return "error " + path + ": " + message;
}

namespace {

/// An optional integer field within [lo, hi]; false when present but
/// not a number or out of range.
bool bounded_int(const JsonValue& v, const char* key, int lo, int hi,
                 std::optional<int>* out) {
  const JsonValue* f = v.find(key);
  if (!f) return true;
  if (!f->is_number() || f->as_int() < lo || f->as_int() > hi) return false;
  *out = static_cast<int>(f->as_int());
  return true;
}

/// An optional 1-16 hex digit string field.
bool hex_field(const JsonValue& v, const char* key, uint64_t* out) {
  const JsonValue* f = v.find(key);
  return !f || (f->is_string() && parse_hex64(f->as_string(), out));
}

bool int_field(const JsonValue& v, const char* key, int64_t* out) {
  const JsonValue* f = v.find(key);
  if (!f || !f->is_number()) return false;
  *out = f->as_int();
  return true;
}

}  // namespace

std::optional<EncodeRequest> EncodeRequest::from_json(const JsonValue& v,
                                                      std::string* detail) {
  auto fail = [detail](const char* text) {
    *detail = text;
    return std::optional<EncodeRequest>();
  };
  EncodeRequest r;
  if (const JsonValue* id = v.find("id")) r.id = *id;
  const JsonValue* con = v.find("con");
  const JsonValue* path = v.find("path");
  if (con && con->is_string()) r.con = con->as_string();
  if (path && path->is_string()) r.path = path->as_string();
  if (!r.con && !r.path)
    return fail("request needs a \"con\" or \"path\" string (or a \"cmd\")");
  if (!bounded_int(v, "restarts", 1, 1024, &r.restarts))
    return fail("restarts must be in [1, 1024]");
  if (!bounded_int(v, "bits", 0, 31, &r.bits))
    return fail("bits must be in [0, 31]");
  if (const JsonValue* be = v.find("backend")) {
    if (be->is_string())
      r.backend = portfolio::parse_backend_kind(be->as_string());
    if (!r.backend)
      return fail("backend must be picola, sat, anneal or portfolio");
  }
  std::optional<int> deadline;
  if (!bounded_int(v, "deadline_ms", 1, 86'400'000, &deadline))
    return fail("deadline_ms must be in [1, 86400000]");
  r.deadline_ms = deadline.value_or(0);
  if (!hex_field(v, "trace_id", &r.trace_id))
    return fail("trace_id must be 1-16 hex digits");
  if (!hex_field(v, "parent_span", &r.parent_span))
    return fail("parent_span must be 1-16 hex digits");
  return r;
}

JsonValue EncodeRequest::to_json() const {
  JsonValue v = JsonValue::make_object();
  if (!id.is_null()) v.set("id", id);
  if (con) v.set("con", JsonValue::make_string(*con));
  if (path) v.set("path", JsonValue::make_string(*path));
  if (restarts) v.set("restarts", JsonValue::make_int(*restarts));
  if (bits) v.set("bits", JsonValue::make_int(*bits));
  if (backend)
    v.set("backend",
          JsonValue::make_string(portfolio::backend_kind_name(*backend)));
  if (deadline_ms > 0) v.set("deadline_ms", JsonValue::make_int(deadline_ms));
  if (trace_id) v.set("trace_id", JsonValue::make_string(hex64(trace_id)));
  if (parent_span)
    v.set("parent_span", JsonValue::make_string(hex64(parent_span)));
  return v;
}

Reply Reply::from_result(const ConstraintSet& set, const JobResult& r) {
  const Encoding& enc = r.picola.encoding;
  Reply rep;
  rep.n = enc.num_symbols;
  rep.bits = enc.num_bits;
  rep.cubes = r.total_cubes;
  rep.satisfied = count_satisfied_constraints(set, enc);
  rep.constraints = static_cast<int>(set.size());
  rep.enc = encoding_fingerprint(enc);
  rep.backend = r.backend;
  rep.cached = r.cache_hit;
  rep.wall_ms = r.wall_ms;
  return rep;
}

JsonValue Reply::fields_json() const {
  JsonValue v = JsonValue::make_object();
  v.set("n", JsonValue::make_int(n));
  v.set("bits", JsonValue::make_int(bits));
  v.set("cubes", JsonValue::make_int(cubes));
  v.set("satisfied", JsonValue::make_int(satisfied));
  v.set("constraints", JsonValue::make_int(constraints));
  v.set("enc", JsonValue::make_string(hex64(enc)));
  v.set("backend",
        JsonValue::make_string(portfolio::backend_kind_name(backend)));
  return v;
}

JsonValue Reply::to_json() const {
  JsonValue v = fields_json();
  v.set("ok", JsonValue::make_bool(true));
  v.set("cached", JsonValue::make_int(cached ? 1 : 0));
  v.set("wall_ms", JsonValue::make_double(wall_ms));
  if (trace_id) v.set("trace_id", JsonValue::make_string(hex64(trace_id)));
  return v;
}

std::optional<Reply> Reply::from_json(const JsonValue& v) {
  Reply r;
  int64_t n, bits, cubes, satisfied, constraints, cached;
  const JsonValue* enc = v.find("enc");
  const JsonValue* backend = v.find("backend");
  std::optional<portfolio::BackendKind> kind;
  if (backend && backend->is_string())
    kind = portfolio::parse_backend_kind(backend->as_string());
  if (!int_field(v, "n", &n) || !int_field(v, "bits", &bits) ||
      !int_field(v, "cubes", &cubes) ||
      !int_field(v, "satisfied", &satisfied) ||
      !int_field(v, "constraints", &constraints) ||
      !int_field(v, "cached", &cached) || !enc || !enc->is_string() ||
      !parse_hex64(enc->as_string(), &r.enc) || !kind ||
      !hex_field(v, "trace_id", &r.trace_id))
    return std::nullopt;
  r.n = static_cast<int>(n);
  r.bits = static_cast<int>(bits);
  r.cubes = static_cast<long>(cubes);
  r.satisfied = static_cast<int>(satisfied);
  r.constraints = static_cast<int>(constraints);
  r.backend = *kind;
  r.cached = cached != 0;
  if (const JsonValue* w = v.find("wall_ms"); w && w->is_number())
    r.wall_ms = w->as_double();
  return r;
}

std::string Reply::summary() const {
  std::ostringstream os;
  os << "n=" << n << " bits=" << bits << " cubes=" << cubes
     << " satisfied=" << satisfied << "/" << constraints
     << " enc=" << hex64(enc)
     << " backend=" << portfolio::backend_kind_name(backend);
  return os.str();
}

std::string Reply::ok_line(const std::string& path) const {
  return "ok " + path + " " + summary() + " cached=" + (cached ? "1" : "0");
}

}  // namespace picola::net
