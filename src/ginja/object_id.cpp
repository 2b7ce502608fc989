#include "ginja/object_id.h"

#include <charconv>
#include <vector>

namespace ginja {

namespace {

std::optional<std::uint64_t> ParseU64(std::string_view s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

// Splits on '_' from the right into exactly `n` trailing fields; the
// remainder (which may itself contain '_' from escaped file names... it
// cannot: we escape '/' only, but table names could contain '_') is
// returned as the head. To be unambiguous, numeric fields are parsed from
// fixed positions right-to-left.
std::vector<std::string_view> RSplit(std::string_view s, char sep, int n) {
  std::vector<std::string_view> fields;
  for (int i = 0; i < n; ++i) {
    const auto pos = s.rfind(sep);
    if (pos == std::string_view::npos) return {};
    fields.push_back(s.substr(pos + 1));
    s = s.substr(0, pos);
  }
  fields.push_back(s);  // head
  return fields;        // [field_n, ..., field_1, head]
}

}  // namespace

std::string EscapePath(std::string_view path) {
  std::string out(path);
  for (char& c : out) {
    if (c == '/') c = '|';
  }
  return out;
}

std::string UnescapePath(std::string_view escaped) {
  std::string out(escaped);
  for (char& c : out) {
    if (c == '|') c = '/';
  }
  return out;
}

std::string WalObjectId::Encode() const {
  return "WAL/" + std::to_string(ts) + "_" + EscapePath(filename) + "_" +
         std::to_string(offset) + "_" + std::to_string(max_lsn);
}

std::optional<WalObjectId> WalObjectId::Decode(std::string_view name) {
  if (!name.starts_with("WAL/")) return std::nullopt;
  name.remove_prefix(4);
  // Layout: <ts>_<escaped>_<offset>_<maxlsn>; escaped may contain '_'.
  const auto fields = RSplit(name, '_', 2);  // [maxlsn, offset, ts_escaped]
  if (fields.size() != 3) return std::nullopt;
  const auto max_lsn = ParseU64(fields[0]);
  const auto offset = ParseU64(fields[1]);
  if (!max_lsn || !offset) return std::nullopt;
  const std::string_view head = fields[2];
  const auto us = head.find('_');
  if (us == std::string_view::npos) return std::nullopt;
  const auto ts = ParseU64(head.substr(0, us));
  if (!ts && head.substr(0, us) != "0") return std::nullopt;

  WalObjectId out;
  out.ts = ts.value_or(0);
  out.filename = UnescapePath(head.substr(us + 1));
  out.offset = *offset;
  out.max_lsn = *max_lsn;
  return out;
}

std::string DbObjectId::Encode() const {
  return "DB/" + std::to_string(ts) + "_" +
         std::string(type == DbObjectType::kDump       ? "dump"
                     : type == DbObjectType::kManifest ? "manifest"
                                                       : "checkpoint") +
         "_" + std::to_string(size) + "_s" + std::to_string(seq) + "_l" +
         std::to_string(redo_lsn) + "_p" + std::to_string(part) + "of" +
         std::to_string(total_parts);
}

std::optional<DbObjectId> DbObjectId::Decode(std::string_view name) {
  if (!name.starts_with("DB/")) return std::nullopt;
  name.remove_prefix(3);
  // [pXofY, lN, sN, size, ts_type...]
  const auto fields = RSplit(name, '_', 4);
  if (fields.size() != 5) return std::nullopt;

  DbObjectId out;
  // part field: "p<part>of<total>"
  std::string_view part_field = fields[0];
  if (!part_field.starts_with('p')) return std::nullopt;
  part_field.remove_prefix(1);
  const auto of = part_field.find("of");
  if (of == std::string_view::npos) return std::nullopt;
  const auto part = ParseU64(part_field.substr(0, of));
  const auto total = ParseU64(part_field.substr(of + 2));
  if (!part || !total || *total == 0 || *part >= *total) return std::nullopt;
  out.part = static_cast<std::uint32_t>(*part);
  out.total_parts = static_cast<std::uint32_t>(*total);

  std::string_view lsn_field = fields[1];
  if (!lsn_field.starts_with('l')) return std::nullopt;
  const auto redo_lsn = ParseU64(lsn_field.substr(1));
  if (!redo_lsn) return std::nullopt;
  out.redo_lsn = *redo_lsn;

  std::string_view seq_field = fields[2];
  if (!seq_field.starts_with('s')) return std::nullopt;
  const auto seq = ParseU64(seq_field.substr(1));
  if (!seq && seq_field.substr(1) != "0") return std::nullopt;
  out.seq = seq.value_or(0);

  const auto size = ParseU64(fields[3]);
  if (!size && fields[3] != "0") return std::nullopt;
  out.size = size.value_or(0);

  const std::string_view head = fields[4];  // "<ts>_<type>"
  const auto us = head.find('_');
  if (us == std::string_view::npos) return std::nullopt;
  const auto ts = ParseU64(head.substr(0, us));
  if (!ts && head.substr(0, us) != "0") return std::nullopt;
  out.ts = ts.value_or(0);
  const std::string_view type = head.substr(us + 1);
  if (type == "dump") {
    out.type = DbObjectType::kDump;
  } else if (type == "checkpoint") {
    out.type = DbObjectType::kCheckpoint;
  } else if (type == "manifest") {
    out.type = DbObjectType::kManifest;
  } else {
    return std::nullopt;
  }
  return out;
}

}  // namespace ginja
