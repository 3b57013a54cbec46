#include "repl/delay_monitor.h"

#include "common/result.h"
#include "common/stats.h"
#include "db/database.h"
#include "db/value.h"

namespace clouddb::repl {

std::map<int64_t, int64_t> ReadHeartbeats(db::Database& database,
                                          const std::string& table) {
  std::map<int64_t, int64_t> out;
  if (database.GetTable(table) == nullptr) return out;
  // Execute goes through the statement cache when it is on: the first poll
  // parses the SELECT once, every later poll binds the same template again.
  Result<db::ExecResult> rows =
      database.Execute("SELECT hb_id, ts FROM " + table);
  if (!rows.ok()) return out;
  const size_t width = rows->column_names.size();
  size_t id_col = width;
  size_t ts_col = width;
  for (size_t i = 0; i < width; ++i) {
    if (rows->column_names[i] == "hb_id") id_col = i;
    if (rows->column_names[i] == "ts") ts_col = i;
  }
  if (id_col == width || ts_col == width) return out;
  for (const db::Row& row : rows->rows) {
    const db::Value& id = row[id_col];
    const db::Value& ts = row[ts_col];
    if (!id.is_null() && !ts.is_null()) {
      out[id.AsInt64()] = ts.AsInt64();
    }
  }
  return out;
}

std::vector<double> HeartbeatDelaysMs(db::Database& master,
                                      db::Database& slave, int64_t min_id,
                                      int64_t max_id,
                                      const std::string& table) {
  std::map<int64_t, int64_t> m = ReadHeartbeats(master, table);
  std::map<int64_t, int64_t> s = ReadHeartbeats(slave, table);
  std::vector<double> delays;
  for (const auto& [id, master_ts] : m) {
    if (id < min_id || id > max_id) continue;
    auto it = s.find(id);
    if (it == s.end()) continue;  // not yet replicated
    delays.push_back(static_cast<double>(it->second - master_ts) / 1000.0);
  }
  return delays;
}

double AverageRelativeDelayMs(const std::vector<double>& loaded_delays_ms,
                              const std::vector<double>& idle_delays_ms,
                              double trim_fraction) {
  Sample loaded;
  loaded.AddAll(loaded_delays_ms);
  Sample idle;
  idle.AddAll(idle_delays_ms);
  return loaded.TrimmedMean(trim_fraction) - idle.TrimmedMean(trim_fraction);
}

}  // namespace clouddb::repl
