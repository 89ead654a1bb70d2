#include "src/incr/manifest.hpp"

#include <cctype>
#include <filesystem>
#include <stdexcept>

#include "src/util/failpoint.hpp"
#include "src/util/io.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"

namespace fs = std::filesystem;

namespace bb::incr {

namespace {

/// Unframes `bytes` under `magic` and parses the body as a JSON object
/// of this format's schema_version.  nullopt with a reason on any
/// defect — the caller treats every defect identically (full rebuild),
/// so reasons are diagnostics only.
std::optional<util::JsonValue> parse_framed(std::string_view magic,
                                            std::string_view bytes,
                                            std::string* error) {
  const auto body = util::unframe(magic, kManifestVersion, bytes, error);
  if (!body) return std::nullopt;
  std::string reason;
  auto json = util::parse_json(*body, &reason);
  if (!json || !json->is_object()) {
    reason = "bad JSON: " + reason;
  } else if (json->get_int("schema_version", -1) != kManifestVersion) {
    reason = "schema_version mismatch";
  } else {
    return json;
  }
  if (error != nullptr) *error = std::move(reason);
  return std::nullopt;
}

std::optional<std::string> read_project_file(const std::string& path,
                                             std::string* error) {
  auto bytes = util::read_file(path);
  if (!bytes && error != nullptr) *error = "cannot open '" + path + "'";
  return bytes;
}

/// Atomically writes one project file, creating its directory.  Returns
/// false on I/O failure or an injected `site` failpoint.
bool store_project_file(const char* site, const fs::path& path,
                        const std::string& bytes, std::string* error) {
  try {
    if (util::failpoint(site)) {
      throw std::runtime_error(std::string("injected ") + site + " failure");
    }
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    util::write_file_atomic(path.string(), bytes);
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace

const UnitRecord* Manifest::find(std::string_view name) const {
  for (const UnitRecord& unit : units) {
    if (unit.name == name) return &unit;
  }
  return nullptr;
}

std::string manifest_to_bytes(const Manifest& manifest) {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", kManifestVersion);
  w.member("library", manifest.library);
  w.member("options", manifest.options);
  w.key("units").begin_array();
  for (const UnitRecord& unit : manifest.units) {
    w.begin_object()
        .member("name", unit.name)
        .member("digest", unit.digest)
        .member("artifact", unit.artifact);
    w.key("controllers").begin_array();
    for (const ControllerRecord& ctrl : unit.controllers) {
      w.begin_object()
          .member("name", ctrl.name)
          .member("key", ctrl.key)
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return util::frame("bbpm", kManifestVersion, w.str());
}

std::optional<Manifest> manifest_from_bytes(std::string_view bytes,
                                            std::string* error) {
  const auto json = parse_framed("bbpm", bytes, error);
  if (!json) return std::nullopt;
  const auto fail = [error](std::string reason) -> std::optional<Manifest> {
    if (error != nullptr) *error = std::move(reason);
    return std::nullopt;
  };
  Manifest manifest;
  manifest.library = json->get_string("library");
  manifest.options = json->get_string("options");
  const util::JsonValue* units = json->get("units");
  if (units == nullptr || !units->is_array()) return fail("missing units");
  for (const util::JsonValue& u : units->array) {
    if (!u.is_object()) return fail("unit is not an object");
    UnitRecord unit;
    unit.name = u.get_string("name");
    unit.digest = u.get_string("digest");
    unit.artifact = u.get_string("artifact");
    if (unit.name.empty() || unit.digest.empty() || unit.artifact.empty()) {
      return fail("unit record missing name/digest/artifact");
    }
    if (const util::JsonValue* ctrls = u.get("controllers");
        ctrls != nullptr && ctrls->is_array()) {
      for (const util::JsonValue& c : ctrls->array) {
        unit.controllers.push_back(
            ControllerRecord{c.get_string("name"), c.get_string("key")});
      }
    }
    manifest.units.push_back(std::move(unit));
  }
  return manifest;
}

std::string artifact_to_bytes(const Artifact& artifact) {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", kManifestVersion);
  w.member("report", artifact.report);
  w.member("verilog", artifact.verilog);
  w.end_object();
  return util::frame("bbart", kManifestVersion, w.str());
}

std::optional<Artifact> artifact_from_bytes(std::string_view bytes,
                                            std::string* error) {
  const auto json = parse_framed("bbart", bytes, error);
  if (!json) return std::nullopt;
  return Artifact{json->get_string("report"), json->get_string("verilog")};
}

std::string artifact_file_name(std::string_view unit,
                               std::string_view digest) {
  std::string safe;
  for (const char c : unit) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '-';
    safe += ok ? c : '_';
  }
  return safe + "-" + std::string(digest) + ".bba";
}

std::string manifest_path(const std::string& project_dir) {
  return (fs::path(project_dir) / kManifestFile).string();
}

std::string artifact_path(const std::string& project_dir,
                          std::string_view file_name) {
  return (fs::path(project_dir) / kArtifactDir / file_name).string();
}

std::optional<Manifest> load_manifest(const std::string& project_dir,
                                      std::string* error) {
  const auto bytes = read_project_file(manifest_path(project_dir), error);
  if (!bytes) return std::nullopt;
  return manifest_from_bytes(*bytes, error);
}

bool store_manifest(const std::string& project_dir, const Manifest& manifest,
                    std::string* error) {
  return store_project_file("incr.manifest.store", manifest_path(project_dir),
                            manifest_to_bytes(manifest), error);
}

std::optional<Artifact> load_artifact(const std::string& project_dir,
                                      std::string_view file_name,
                                      std::string* error) {
  const auto bytes =
      read_project_file(artifact_path(project_dir, file_name), error);
  if (!bytes) return std::nullopt;
  return artifact_from_bytes(*bytes, error);
}

bool store_artifact(const std::string& project_dir,
                    std::string_view file_name, const Artifact& artifact,
                    std::string* error) {
  return store_project_file("incr.artifact.store",
                            artifact_path(project_dir, file_name),
                            artifact_to_bytes(artifact), error);
}

std::size_t gc_artifacts(const std::string& project_dir,
                         const Manifest& keep) {
  std::error_code ec;
  fs::directory_iterator it(fs::path(project_dir) / kArtifactDir, ec);
  if (ec) return 0;
  std::size_t removed = 0;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    bool referenced = false;
    for (const UnitRecord& unit : keep.units) {
      if (unit.artifact == name) {
        referenced = true;
        break;
      }
    }
    if (referenced) continue;
    if (fs::remove(entry.path(), ec)) ++removed;
  }
  return removed;
}

}  // namespace bb::incr
