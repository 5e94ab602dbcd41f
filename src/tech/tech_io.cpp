#include "tech/tech_io.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rip::tech {

namespace {

/// "key value key value ..." token pairs; views into the parsed line.
using KeyValues = std::map<std::string_view, std::string_view>;

KeyValues kv_pairs(const std::vector<std::string_view>& tokens,
                   std::size_t from, int line_no) {
  RIP_REQUIRE((tokens.size() - from) % 2 == 0,
              "odd key/value list at line " + std::to_string(line_no));
  KeyValues kv;
  for (std::size_t i = from; i + 1 < tokens.size(); i += 2)
    kv[tokens[i]] = tokens[i + 1];
  return kv;
}

double need_double(const KeyValues& kv, const std::string& key,
                   int line_no) {
  const auto it = kv.find(key);
  RIP_REQUIRE(it != kv.end(),
              "missing key '" + key + "' at line " + std::to_string(line_no));
  return rip::parse_double(it->second, key);
}

}  // namespace

Technology read_technology(std::istream& is) {
  std::string line;
  int line_no = 0;
  bool got_magic = false;
  std::string name;
  RepeaterDevice dev;
  bool got_device = false;
  std::vector<MetalLayer> layers;
  PowerModel power;

  std::vector<std::string_view> tokens;
  while (std::getline(is, line)) {
    ++line_no;
    split_ws(line, tokens);
    if (tokens.empty() || tokens[0].front() == '#') continue;
    const std::string_view kind = tokens[0];
    if (kind == "riptech") {
      RIP_REQUIRE(tokens.size() == 2 && tokens[1] == "1",
                  "unsupported riptech version at line " +
                      std::to_string(line_no));
      got_magic = true;
    } else if (kind == "name") {
      RIP_REQUIRE(tokens.size() == 2,
                  "name takes one token at line " + std::to_string(line_no));
      name = tokens[1];
    } else if (kind == "device") {
      const auto kv = kv_pairs(tokens, 1, line_no);
      dev.rs_ohm = need_double(kv, "rs_ohm", line_no);
      dev.co_ff = need_double(kv, "co_ff", line_no);
      dev.cp_ff = need_double(kv, "cp_ff", line_no);
      dev.min_width_u = need_double(kv, "min_u", line_no);
      dev.max_width_u = need_double(kv, "max_u", line_no);
      got_device = true;
    } else if (kind == "layer") {
      RIP_REQUIRE(tokens.size() >= 2,
                  "layer needs a name at line " + std::to_string(line_no));
      const auto kv = kv_pairs(tokens, 2, line_no);
      MetalLayer layer;
      layer.name = tokens[1];
      layer.r_ohm_per_um = need_double(kv, "r_ohm_per_um", line_no);
      layer.c_ff_per_um = need_double(kv, "c_ff_per_um", line_no);
      layers.push_back(layer);
    } else if (kind == "power") {
      const auto kv = kv_pairs(tokens, 1, line_no);
      power.activity = need_double(kv, "activity", line_no);
      power.vdd_v = need_double(kv, "vdd_v", line_no);
      power.freq_ghz = need_double(kv, "freq_ghz", line_no);
      power.beta_nw_per_u = need_double(kv, "beta_nw_per_u", line_no);
    } else {
      throw Error("unknown directive '" + std::string(kind) + "' at line " +
                  std::to_string(line_no));
    }
  }
  RIP_REQUIRE(got_magic, "missing 'riptech 1' header");
  RIP_REQUIRE(got_device, "missing 'device' line");
  return Technology(name, dev, std::move(layers), power);
}

Technology read_technology_file(const std::string& path) {
  std::ifstream in(path);
  RIP_REQUIRE(in.good(), "cannot open technology file: " + path);
  return read_technology(in);
}

void write_technology(std::ostream& os, const Technology& tech) {
  os << "riptech 1\n";
  os << "name " << tech.name() << "\n";
  const auto& d = tech.device();
  os << "device rs_ohm " << d.rs_ohm << " co_ff " << d.co_ff << " cp_ff "
     << d.cp_ff << " min_u " << d.min_width_u << " max_u " << d.max_width_u
     << "\n";
  for (const auto& l : tech.layers()) {
    os << "layer " << l.name << " r_ohm_per_um " << l.r_ohm_per_um
       << " c_ff_per_um " << l.c_ff_per_um << "\n";
  }
  const auto& p = tech.power();
  os << "power activity " << p.activity << " vdd_v " << p.vdd_v
     << " freq_ghz " << p.freq_ghz << " beta_nw_per_u " << p.beta_nw_per_u
     << "\n";
}

}  // namespace rip::tech
