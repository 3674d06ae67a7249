// net/frame.h — length-prefixed framing: round-trips under arbitrary
// fragmentation, multiple frames per read, and the oversize guard firing
// on the header before any payload is buffered.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace picola::net {
namespace {

/// "p<i>", built with += (a literal + std::to_string draws a spurious
/// -Wrestrict from g++ 12 at -O3).
std::string numbered(int i) {
  std::string s = "p";
  s += std::to_string(i);
  return s;
}

std::vector<std::string> feed_all(FrameReader& r, const std::string& bytes,
                                  size_t chunk) {
  std::vector<std::string> out;
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    size_t n = std::min(chunk, bytes.size() - off);
    if (!r.feed(bytes.data() + off, n)) break;
    while (auto p = r.next()) out.push_back(*p);
  }
  return out;
}

TEST(Frame, EncodeProducesBigEndianHeader) {
  std::string f = encode_frame("abc");
  ASSERT_EQ(f.size(), kFrameHeaderBytes + 3);
  EXPECT_EQ(f[0], '\0');
  EXPECT_EQ(f[1], '\0');
  EXPECT_EQ(f[2], '\0');
  EXPECT_EQ(f[3], '\x03');
  EXPECT_EQ(f.substr(4), "abc");
}

TEST(Frame, RoundTripUnderEveryFragmentation) {
  std::string stream = encode_frame("first") + encode_frame("") +
                       encode_frame(std::string(1000, 'x')) +
                       encode_frame("last");
  for (size_t chunk : {size_t(1), size_t(2), size_t(3), size_t(7),
                       stream.size()}) {
    FrameReader r(1 << 20);
    auto frames = feed_all(r, stream, chunk);
    ASSERT_EQ(frames.size(), 4u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0], "first");
    EXPECT_EQ(frames[1], "");
    EXPECT_EQ(frames[2], std::string(1000, 'x'));
    EXPECT_EQ(frames[3], "last");
    EXPECT_FALSE(r.error());
    EXPECT_EQ(r.buffered_bytes(), 0u);
  }
}

TEST(Frame, ManyFramesInOneFeed) {
  std::string stream;
  for (int i = 0; i < 50; ++i) stream += encode_frame(numbered(i));
  FrameReader r(1 << 20);
  ASSERT_TRUE(r.feed(stream.data(), stream.size()));
  for (int i = 0; i < 50; ++i) {
    auto p = r.next();
    ASSERT_TRUE(p);
    EXPECT_EQ(*p, numbered(i));
  }
  EXPECT_FALSE(r.next());
}

TEST(Frame, OversizedHeaderPoisonsBeforeBuffering) {
  FrameReader r(128);
  std::string f = encode_frame(std::string(1000, 'y'));  // legal globally
  EXPECT_FALSE(r.feed(f.data(), f.size()));
  EXPECT_TRUE(r.error());
  EXPECT_EQ(r.oversized_length(), 1000u);
  // The guard fired on the 4 header bytes; the kilobyte body was never
  // copied, and the partial-frame buffer is released on poisoning.
  EXPECT_EQ(r.buffered_bytes(), 0u);
  // Sticky: further feeds are rejected too.
  EXPECT_FALSE(r.feed("\0\0\0\1a", 5));
  EXPECT_FALSE(r.next());
}

TEST(Frame, OversizeDetectedFromPartialHeader) {
  FrameReader r(16);
  std::string f = encode_frame(std::string(100, 'z'));
  // Header dribbles in one byte at a time; the limit check still fires
  // the moment byte 4 lands.
  EXPECT_TRUE(r.feed(f.data() + 0, 1));
  EXPECT_TRUE(r.feed(f.data() + 1, 1));
  EXPECT_TRUE(r.feed(f.data() + 2, 1));
  EXPECT_FALSE(r.feed(f.data() + 3, 1));
  EXPECT_TRUE(r.error());
}

TEST(Frame, PoisonReleasesThePartialBuffer) {
  // A poisoned reader lives until its connection is torn down; it must
  // not pin the dribbled-in header bytes (or anything else) meanwhile.
  FrameReader r(16);
  std::string f = encode_frame(std::string(100, 'z'));
  ASSERT_TRUE(r.feed(f.data(), 3));
  EXPECT_EQ(r.buffered_bytes(), 3u);
  EXPECT_FALSE(r.feed(f.data() + 3, f.size() - 3));
  EXPECT_TRUE(r.error());
  EXPECT_EQ(r.buffered_bytes(), 0u);
  // Still poisoned and still empty after another feed attempt.
  EXPECT_FALSE(r.feed("abcd", 4));
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(Frame, EncodeRejectsAbsurdPayload) {
  std::string huge;
  EXPECT_THROW(
      {
        std::string p(kFrameAbsoluteMax + 1, 'a');
        huge = encode_frame(p);
      },
      std::length_error);
}

TEST(Frame, ZeroLengthFrameBetweenOthers) {
  FrameReader r(64);
  std::string stream = encode_frame("") + encode_frame("a") + encode_frame("");
  ASSERT_TRUE(r.feed(stream.data(), stream.size()));
  EXPECT_EQ(*r.next(), "");
  EXPECT_EQ(*r.next(), "a");
  EXPECT_EQ(*r.next(), "");
  EXPECT_FALSE(r.next());
}

}  // namespace
}  // namespace picola::net
