#include "src/snapshot/archive.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/util/error.hpp"

namespace dtn::snapshot {

void ArchiveWriter::raw(const void* p, std::size_t n) {
  hash_.update(p, n);
  written_ += n;
  if (mode_ == Mode::kBuffer) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
}

void ArchiveWriter::tag(Tag t) {
  const auto b = static_cast<std::uint8_t>(t);
  raw(&b, 1);
}

void ArchiveWriter::le64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 8);
}

void ArchiveWriter::u8(std::uint8_t v) {
  tag(Tag::kU8);
  raw(&v, 1);
}

void ArchiveWriter::u32(std::uint32_t v) {
  tag(Tag::kU32);
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 4);
}

void ArchiveWriter::u64(std::uint64_t v) {
  tag(Tag::kU64);
  le64(v);
}

void ArchiveWriter::i64(std::int64_t v) {
  tag(Tag::kI64);
  le64(static_cast<std::uint64_t>(v));
}

void ArchiveWriter::f64(double v) {
  tag(Tag::kF64);
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  le64(bits);
}

void ArchiveWriter::boolean(bool v) {
  tag(Tag::kBool);
  const std::uint8_t b = v ? 1 : 0;
  raw(&b, 1);
}

void ArchiveWriter::str(const std::string& v) {
  tag(Tag::kString);
  le64(v.size());
  raw(v.data(), v.size());
}

void ArchiveWriter::begin_section(const std::string& name) {
  tag(Tag::kSectionBegin);
  le64(name.size());
  raw(name.data(), name.size());
  ++depth_;
}

void ArchiveWriter::end_section() {
  DTN_REQUIRE(depth_ > 0, "archive: end_section without matching begin");
  tag(Tag::kSectionEnd);
  --depth_;
}

const std::vector<std::uint8_t>& ArchiveWriter::bytes() const {
  DTN_REQUIRE(mode_ == Mode::kBuffer, "archive: digest-only writer has no bytes");
  DTN_REQUIRE(depth_ == 0, "archive: unbalanced sections");
  return buf_;
}

void ArchiveReader::raw(void* p, std::size_t n) {
  DTN_REQUIRE(n <= buf_.size() - pos_, "archive: read past end (truncated?)");
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

void ArchiveReader::expect(Tag t) {
  std::uint8_t b = 0;
  raw(&b, 1);
  DTN_REQUIRE(b == static_cast<std::uint8_t>(t),
              "archive: type tag mismatch (corrupt or out-of-sync stream)");
}

std::uint64_t ArchiveReader::le64() {
  std::uint8_t b[8];
  raw(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::uint8_t ArchiveReader::u8() {
  expect(Tag::kU8);
  std::uint8_t v = 0;
  raw(&v, 1);
  return v;
}

std::uint32_t ArchiveReader::u32() {
  expect(Tag::kU32);
  std::uint8_t b[4];
  raw(b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t ArchiveReader::u64() {
  expect(Tag::kU64);
  return le64();
}

std::int64_t ArchiveReader::i64() {
  expect(Tag::kI64);
  return static_cast<std::int64_t>(le64());
}

double ArchiveReader::f64() {
  expect(Tag::kF64);
  const std::uint64_t bits = le64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool ArchiveReader::boolean() {
  expect(Tag::kBool);
  std::uint8_t b = 0;
  raw(&b, 1);
  DTN_REQUIRE(b <= 1, "archive: malformed bool");
  return b != 0;
}

std::uint64_t ArchiveReader::count(std::size_t elem_bytes) {
  const std::uint64_t n = u64();
  DTN_REQUIRE(n <= remaining() / elem_bytes,
              "archive: element count exceeds the remaining bytes "
              "(corrupt length prefix?)");
  return n;
}

std::string ArchiveReader::str() {
  expect(Tag::kString);
  const std::uint64_t n = le64();
  DTN_REQUIRE(n <= remaining(), "archive: string length past end");
  std::string v(n, '\0');
  raw(v.data(), n);
  return v;
}

void ArchiveReader::begin_section(const std::string& name) {
  expect(Tag::kSectionBegin);
  const std::uint64_t n = le64();
  DTN_REQUIRE(n <= remaining(), "archive: section name past end");
  std::string got(n, '\0');
  raw(got.data(), n);
  DTN_REQUIRE(got == name, "archive: expected section '" + name +
                               "', found '" + got + "'");
  ++depth_;
}

void ArchiveReader::end_section() {
  DTN_REQUIRE(depth_ > 0, "archive: end_section without matching begin");
  expect(Tag::kSectionEnd);
  --depth_;
}

namespace {

void append_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t take_le32(const std::vector<std::uint8_t>& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[at + static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

std::uint64_t take_le64(const std::vector<std::uint8_t>& in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[at + static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

}  // namespace

void write_archive_file(const std::string& path, const ArchiveWriter& w) {
  const std::vector<std::uint8_t>& payload = w.bytes();
  std::vector<std::uint8_t> framed;
  framed.reserve(payload.size() + 24);
  append_le32(framed, kArchiveMagic);
  append_le32(framed, kArchiveVersion);
  append_le64(framed, payload.size());
  framed.insert(framed.end(), payload.begin(), payload.end());
  Fnv1a h;
  h.update(payload.data(), payload.size());
  append_le64(framed, h.digest());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    DTN_REQUIRE(os.good(), "archive: cannot open for writing: " + tmp);
    os.write(reinterpret_cast<const char*>(framed.data()),
             static_cast<std::streamsize>(framed.size()));
    DTN_REQUIRE(os.good(), "archive: write failed: " + tmp);
  }
  DTN_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "archive: rename failed: " + path);
}

ArchiveReader read_archive_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DTN_REQUIRE(is.good(), "archive: cannot open: " + path);
  std::vector<std::uint8_t> framed((std::istreambuf_iterator<char>(is)),
                                   std::istreambuf_iterator<char>());
  DTN_REQUIRE(framed.size() >= 24, "archive: file too short: " + path);
  DTN_REQUIRE(take_le32(framed, 0) == kArchiveMagic,
              "archive: bad magic (not a snapshot file): " + path);
  const std::uint32_t version = take_le32(framed, 4);
  DTN_REQUIRE(version >= kArchiveMinVersion && version <= kArchiveVersion,
              "archive: unsupported version " + std::to_string(version) +
                  " (supported: " + std::to_string(kArchiveMinVersion) +
                  ".." + std::to_string(kArchiveVersion) + ")");
  const std::uint64_t n = take_le64(framed, 8);
  DTN_REQUIRE(framed.size() == 24 + n,
              "archive: payload length mismatch (truncated?): " + path);
  Fnv1a h;
  h.update(framed.data() + 16, n);
  const std::uint64_t stored = take_le64(framed, 16 + n);
  DTN_REQUIRE(h.digest() == stored, "archive: digest mismatch (corrupt): " + path);
  return ArchiveReader(
      std::vector<std::uint8_t>(
          framed.begin() + 16,
          framed.begin() + 16 + static_cast<std::ptrdiff_t>(n)),
      version);
}

void write_running_stats(ArchiveWriter& w, const RunningStats& s) {
  const RunningStats::State st = s.export_state();
  w.u64(st.n);
  w.f64(st.mean);
  w.f64(st.m2);
  w.f64(st.min);
  w.f64(st.max);
}

void read_running_stats(ArchiveReader& r, RunningStats& s) {
  RunningStats::State st;
  st.n = r.u64();
  st.mean = r.f64();
  st.m2 = r.f64();
  st.min = r.f64();
  st.max = r.f64();
  s.import_state(st);
}

void write_rng(ArchiveWriter& w, const Rng& rng) {
  for (std::uint64_t word : rng.state()) w.u64(word);
}

void read_rng(ArchiveReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (auto& word : s) word = r.u64();
  rng.set_state(s);
}

}  // namespace dtn::snapshot
