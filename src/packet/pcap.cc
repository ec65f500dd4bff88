#include "packet/pcap.h"

#include <algorithm>
#include <cstdio>

namespace gq::pkt {

namespace {

// pcap files are conventionally little-endian with magic 0xA1B2C3D4.
void put_u16le(std::vector<std::uint8_t>& buf, std::uint16_t v) {
  buf.push_back(static_cast<std::uint8_t>(v));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32le(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  buf.push_back(static_cast<std::uint8_t>(v));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v >> 16));
  buf.push_back(static_cast<std::uint8_t>(v >> 24));
}

}  // namespace

PcapWriter::PcapWriter() {
  put_u32le(buf_, 0xA1B2C3D4u);  // Magic (microsecond timestamps).
  put_u16le(buf_, 2);            // Version major.
  put_u16le(buf_, 4);            // Version minor.
  put_u32le(buf_, 0);            // Timezone offset.
  put_u32le(buf_, 0);            // Timestamp accuracy.
  put_u32le(buf_, kPcapSnapLen); // Snap length.
  put_u32le(buf_, 1);            // LINKTYPE_ETHERNET.
}

void PcapWriter::record(util::TimePoint at,
                        std::span<const std::uint8_t> frame) {
  const auto usec_total = static_cast<std::uint64_t>(at.usec);
  const auto orig_len = static_cast<std::uint32_t>(frame.size());
  const std::uint32_t incl_len = std::min(orig_len, kPcapSnapLen);
  const std::uint32_t fields[4] = {
      static_cast<std::uint32_t>(usec_total / 1'000'000),
      static_cast<std::uint32_t>(usec_total % 1'000'000), incl_len, orig_len};
  std::uint8_t header[kPcapRecordHeaderSize];
  for (std::size_t i = 0; i < 4; ++i) {
    header[4 * i] = static_cast<std::uint8_t>(fields[i]);
    header[4 * i + 1] = static_cast<std::uint8_t>(fields[i] >> 8);
    header[4 * i + 2] = static_cast<std::uint8_t>(fields[i] >> 16);
    header[4 * i + 3] = static_cast<std::uint8_t>(fields[i] >> 24);
  }
  buf_.insert(buf_.end(), header, header + kPcapRecordHeaderSize);
  buf_.insert(buf_.end(), frame.begin(), frame.begin() + incl_len);
  ++packet_count_;
}

std::vector<PcapRecord> parse_pcap(std::span<const std::uint8_t> data) {
  std::vector<PcapRecord> records;
  auto u32le = [&](std::size_t at) -> std::uint32_t {
    return data[at] | (data[at + 1] << 8) | (data[at + 2] << 16) |
           (static_cast<std::uint32_t>(data[at + 3]) << 24);
  };
  if (data.size() < kPcapFileHeaderSize || u32le(0) != 0xA1B2C3D4u)
    return records;
  std::size_t at = kPcapFileHeaderSize;
  while (at + kPcapRecordHeaderSize <= data.size()) {
    const std::uint64_t sec = u32le(at);
    const std::uint64_t usec = u32le(at + 4);
    const std::uint32_t incl_len = u32le(at + 8);
    const std::uint32_t orig_len = u32le(at + 12);
    // A caplen above the declared snap length, or above the original
    // wire length, is structurally invalid: record framing after this
    // point cannot be trusted, so stop and return the valid prefix.
    if (incl_len > kPcapSnapLen || incl_len > orig_len) break;
    at += kPcapRecordHeaderSize;
    // Truncated mid-record: return every complete record before the cut.
    if (at + incl_len > data.size()) break;
    PcapRecord record;
    record.time.usec = static_cast<std::int64_t>(sec * 1'000'000 + usec);
    record.orig_len = orig_len;
    record.frame.assign(
        data.begin() + static_cast<std::ptrdiff_t>(at),
        data.begin() + static_cast<std::ptrdiff_t>(at + incl_len));
    records.push_back(std::move(record));
    at += incl_len;
  }
  return records;
}

bool PcapWriter::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool ok =
      std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace gq::pkt
