#include "http/extensions.h"

#include <gtest/gtest.h>

namespace broadway {
namespace {

TEST(Extensions, LastModifiedPrefersPreciseHeader) {
  Headers headers;
  set_last_modified(headers, 3661.125);
  // Both headers stamped.
  EXPECT_TRUE(headers.has(kHdrLastModified));
  EXPECT_TRUE(headers.has(kHdrLastModifiedPrecise));
  EXPECT_NEAR(*get_last_modified(headers), 3661.125, 1e-3);
  // Without the precise header we fall back to whole seconds.
  headers.remove(kHdrLastModifiedPrecise);
  EXPECT_DOUBLE_EQ(*get_last_modified(headers), 3661.0);
}

TEST(Extensions, IfModifiedSinceRoundTrip) {
  Headers headers;
  set_if_modified_since(headers, 42.75);
  EXPECT_NEAR(*get_if_modified_since(headers), 42.75, 1e-3);
  Headers empty;
  EXPECT_FALSE(get_if_modified_since(empty).has_value());
}

TEST(Extensions, ModificationHistoryRoundTrip) {
  Headers headers;
  set_modification_history(headers, {10.5, 20.25, 30.0});
  const auto history = get_modification_history(headers);
  ASSERT_TRUE(history.has_value());
  ASSERT_EQ(history->size(), 3u);
  EXPECT_NEAR((*history)[0], 10.5, 1e-3);
  EXPECT_NEAR((*history)[2], 30.0, 1e-3);
}

TEST(Extensions, EmptyHistoryRoundTrip) {
  Headers headers;
  set_modification_history(headers, {});
  const auto history = get_modification_history(headers);
  ASSERT_TRUE(history.has_value());
  EXPECT_TRUE(history->empty());
}

TEST(Extensions, AbsentHistoryDecodesEmpty) {
  Headers headers;
  const auto history = get_modification_history(headers);
  ASSERT_TRUE(history.has_value());
  EXPECT_TRUE(history->empty());
}

TEST(Extensions, MalformedHistoryRejected) {
  Headers headers;
  headers.set(kHdrModificationHistory, "1.0, banana, 3.0");
  EXPECT_FALSE(get_modification_history(headers).has_value());
  headers.set(kHdrModificationHistory, "5.0, 3.0");  // descending
  EXPECT_FALSE(get_modification_history(headers).has_value());
  // Non-finite entries: a NaN compares false against everything, so
  // without an explicit check "100, nan, 50" decodes as an unordered
  // history.
  for (const char* raw : {"100, nan, 50", "-inf, 5", "nan", "inf",
                          "1.0, 1e400"}) {
    SCOPED_TRACE(raw);
    headers.set(kHdrModificationHistory, raw);
    EXPECT_FALSE(get_modification_history(headers).has_value());
  }
}

TEST(Extensions, NonFinitePreciseDateAndToleranceRejected) {
  Headers headers;
  headers.set(kHdrLastModifiedPrecise, "nan");
  EXPECT_FALSE(get_last_modified(headers).has_value());
  headers.set(kHdrIfModifiedSincePrecise, "-inf");
  EXPECT_FALSE(get_if_modified_since(headers).has_value());
  headers.set(kHdrDeltaConsistency, "inf");
  EXPECT_FALSE(get_delta_tolerance(headers).has_value());
  headers.set(kHdrGroupDelta, "NAN");
  EXPECT_FALSE(get_group_delta(headers).has_value());
}

TEST(Extensions, DeltaToleranceRoundTrip) {
  Headers headers;
  set_delta_tolerance(headers, 600.0);
  EXPECT_NEAR(*get_delta_tolerance(headers), 600.0, 1e-3);
  Headers empty;
  EXPECT_FALSE(get_delta_tolerance(empty).has_value());
}

TEST(Extensions, GroupDirectives) {
  Headers headers;
  set_group(headers, "breaking-news", 300.0);
  EXPECT_EQ(*get_group_id(headers), "breaking-news");
  EXPECT_NEAR(*get_group_delta(headers), 300.0, 1e-3);
  Headers empty;
  EXPECT_FALSE(get_group_id(empty).has_value());
  EXPECT_FALSE(get_group_delta(empty).has_value());
}

TEST(Extensions, ObjectValueFullPrecision) {
  Headers headers;
  set_object_value(headers, 160.0625);  // a sixteenth: exact in binary
  EXPECT_DOUBLE_EQ(*get_object_value(headers), 160.0625);
  set_object_value(headers, 36.11);
  EXPECT_DOUBLE_EQ(*get_object_value(headers), 36.11);
  Headers empty;
  EXPECT_FALSE(get_object_value(empty).has_value());
}

TEST(Extensions, ObjectValueMalformed) {
  Headers headers;
  headers.set(kHdrObjectValue, "not-a-price");
  EXPECT_FALSE(get_object_value(headers).has_value());
}

}  // namespace
}  // namespace broadway
