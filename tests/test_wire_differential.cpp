// Typed-wire ≡ string-wire differential tests.
//
// The polling engine exchanges typed metadata (RequestMeta/ResponseMeta);
// real HTTP renders and parses the §5.1 header strings, which the origin
// still does for every untyped request.  These tests pin that the two
// representations are indistinguishable everywhere the consistency
// machinery can look: at the origin, for every status/extension
// combination, the typed response carries exactly the values a proxy
// would parse back out of the rendered headers (and materialize_headers
// reproduces those headers byte for byte), and the typed quantiser equals
// the %.3f header round trip on every input.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "http/codec.h"
#include "http/extensions.h"
#include "origin/origin_server.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace broadway {
namespace {

// ---- origin-level matrix ---------------------------------------------------

Request typed_request(const OriginServer& origin, const std::string& uri,
                      std::optional<TimePoint> ims) {
  Request request;
  request.method = Method::kGet;
  request.object = origin.object_id(uri);
  request.uri = uri;  // exercised when the id is unknown
  request.meta.active = true;
  if (ims) request.meta.if_modified_since = quantize_wire_seconds(*ims);
  return request;
}

Request string_request(const std::string& uri, std::optional<TimePoint> ims) {
  Request request;
  request.method = Method::kGet;
  request.uri = uri;
  if (ims) set_if_modified_since(request.headers, *ims);
  return request;
}

// Every value a proxy can read from a response must match between the
// typed and string representations, and materialising the typed response
// must reproduce the string response's extension headers byte for byte.
void expect_equivalent(OriginServer& origin, const std::string& uri,
                       std::optional<TimePoint> ims) {
  SCOPED_TRACE(uri + (ims ? " ims=" + std::to_string(*ims) : " unconditional"));
  Response typed = origin.handle(typed_request(origin, uri, ims));
  const Response wire = origin.handle(string_request(uri, ims));

  ASSERT_EQ(typed.status, wire.status);
  EXPECT_TRUE(typed.meta.active);
  EXPECT_EQ(wire_last_modified(typed), wire_last_modified(wire));
  EXPECT_EQ(wire_object_value(typed), wire_object_value(wire));
  std::vector<TimePoint> typed_history;
  std::vector<TimePoint> wire_history;
  EXPECT_TRUE(wire_modification_history(typed, typed_history));
  EXPECT_TRUE(wire_modification_history(wire, wire_history));
  EXPECT_EQ(typed_history, wire_history);
  EXPECT_EQ(typed.body, wire.body);

  // Full wire form: serialising the typed message lazily materialises its
  // headers and yields the same bytes as the string path (including
  // Content-Type and Content-Length framing).  The test instants sit away
  // from RFC-1123 whole-second truncation edges, where only the redundant
  // coarse date — never the authoritative precise header — could differ.
  EXPECT_EQ(serialize(typed), serialize(wire));
  EXPECT_EQ(serialize(typed_request(origin, uri, ims)),
            serialize(string_request(uri, ims)));

  // And the materialised headers match name for name.
  materialize_headers(typed);
  for (const std::string_view name :
       {kHdrLastModified, kHdrLastModifiedPrecise, kHdrModificationHistory,
        kHdrObjectValue, std::string_view("Content-Type")}) {
    SCOPED_TRACE(std::string(name));
    EXPECT_EQ(typed.headers.get(name), wire.headers.get(name));
  }
}

TEST(WireDifferential, OriginMatrix) {
  for (const bool history_enabled : {true, false}) {
    for (const bool render_bodies : {true, false}) {
      Simulator sim;
      OriginServer::Config config;
      config.history_enabled = history_enabled;
      config.history_limit = 3;  // exercise capping
      config.render_bodies = render_bodies;
      OriginServer origin(sim, config);
      VersionedObject& page = origin.add_object("/page");
      origin.add_value_object("/stock", 160.0625);
      sim.run_until(400.0);
      for (const double t : {100.125, 200.25, 300.0009, 300.5})
        page.apply_update(t);
      origin.store().at("/stock").apply_update(350.0, 161.75);

      for (const std::string uri : {"/page", "/stock"}) {
        expect_equivalent(origin, uri, std::nullopt);       // 200, full history
        expect_equivalent(origin, uri, 150.0);              // 200, partial
        expect_equivalent(origin, uri, 250.3333333);        // 200, sub-ms ims
        expect_equivalent(origin, uri, 399.0);              // 304
      }
      expect_equivalent(origin, "/ghost", std::nullopt);    // 404
      expect_equivalent(origin, "/ghost", 10.0);            // 404 conditional
    }
  }
}

TEST(WireDifferential, QuantizerMatchesPrintfEverywhere) {
  // The arithmetic fast path must equal the authoritative %.3f + strtod
  // round trip bit for bit — including printf's ties-to-even on exact
  // .5 ties (representable only at odd/16, odd/32, ... grids).
  const auto printf_quantize = [](double t) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", t);
    return std::strtod(buf, nullptr);
  };
  std::vector<double> cases = {0.0,    0.0005, 0.0015, 0.0625, 0.1875,
                               1.0 / 3.0, 2.5e-4, 86399.9995, 1234567.8905};
  for (int i = 1; i < 4000; ++i) {
    cases.push_back(static_cast<double>(2 * i + 1) / 16.0);   // exact ties
    cases.push_back(static_cast<double>(2 * i + 1) / 2000.0);  // near-tie grid
  }
  // Large-magnitude ties and offsets: the fast path must hold (and stay a
  // fast path) at year-scale horizons, not just bench-scale ones.
  for (const double base : {1.0e5, 3.1e7, 1.0e9, 4.0e12}) {
    for (int j = 0; j < 64; ++j) {
      cases.push_back(base + static_cast<double>(2 * j + 1) / 16.0);
      cases.push_back(base + static_cast<double>(j) * 0.3335);
    }
  }
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    cases.push_back(rng.uniform(0.0, 2.0e6));
  }
  for (int i = 0; i < 20000; ++i) {
    cases.push_back(rng.uniform(0.0, 4.0e12));
  }
  for (const double t : cases) {
    const double fast = quantize_wire_seconds(t);
    const double slow = printf_quantize(t);
    ASSERT_EQ(fast, slow) << "t=" << t;
  }
}

}  // namespace
}  // namespace broadway
