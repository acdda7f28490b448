#include "scenario/metrics.h"

#include <algorithm>
#include <iterator>

namespace erasmus::scenario {

// --- CsvSink -----------------------------------------------------------------

namespace {

// RFC 4180 quoting, applied only when needed so the common all-scalar
// output stays byte-identical to the unquoted form.
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

void CsvSink::begin_run(std::string_view scenario) {
  out_ << "# scenario=" << scenario << "\n";
}

void CsvSink::note(std::string_view key, Value value) {
  out_ << "# note " << key << "=" << csv_escape(value.to_plain()) << "\n";
}

void CsvSink::row(std::string_view table, const Row& r) {
  if (std::find(tables_seen_.begin(), tables_seen_.end(), table) ==
      tables_seen_.end()) {
    tables_seen_.emplace_back(table);
    out_ << "table";
    for (const auto& [col, value] : r) {
      (void)value;
      out_ << "," << col;
    }
    out_ << "\n";
  }
  out_ << table;
  for (const auto& [col, value] : r) {
    (void)col;
    out_ << "," << csv_escape(value.to_plain());
  }
  out_ << "\n";
}

void CsvSink::end_run() { out_.flush(); }

// --- JsonSink ----------------------------------------------------------------

void JsonSink::begin_run(std::string_view scenario) {
  scenario_ = std::string(scenario);
}

void JsonSink::note(std::string_view key, Value value) {
  notes_.emplace_back(std::string(key), std::move(value));
}

void JsonSink::row(std::string_view table, const Row& r) {
  auto it = std::find_if(tables_.begin(), tables_.end(),
                         [&](const auto& t) { return t.first == table; });
  if (it == tables_.end()) {
    tables_.emplace_back(std::string(table), std::string());
    it = std::prev(tables_.end());
  }
  std::string& text = it->second;
  text += text.empty() ? "\n      {" : ",\n      {";
  for (size_t c = 0; c < r.size(); ++c) {
    if (c != 0) text += ", ";
    text += '"';
    text += json_escape(r[c].first);
    text += "\": ";
    text += r[c].second.to_json();
  }
  text += '}';
}

void JsonSink::end_run() {
  out_ << "{\n  \"scenario\": \"" << json_escape(scenario_) << "\",\n";
  out_ << "  \"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    out_ << (i ? ",\n    " : "\n    ");
    out_ << "\"" << json_escape(notes_[i].first)
         << "\": " << notes_[i].second.to_json();
  }
  out_ << (notes_.empty() ? "}" : "\n  }") << ",\n";
  out_ << "  \"tables\": {";
  for (size_t t = 0; t < tables_.size(); ++t) {
    out_ << (t ? ",\n    " : "\n    ");
    // A table exists once it has a row, so its text is never empty.
    out_ << "\"" << json_escape(tables_[t].first) << "\": ["
         << tables_[t].second << "\n    ]";
  }
  out_ << (tables_.empty() ? "}" : "\n  }") << "\n}\n";
  out_.flush();
}

}  // namespace erasmus::scenario
