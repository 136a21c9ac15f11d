//===- train/CheckpointStore.cpp -----------------------------------------------===//

#include "src/train/CheckpointStore.h"

#include "src/support/File.h"
#include "src/support/Hash.h"
#include "src/support/Json.h"
#include "src/support/StringUtils.h"

#include <filesystem>
#include <fstream>

using namespace wootz;

/// Manifest version written by saveTo(): JSONL with a typed header line.
static constexpr int ManifestVersion = 2;

std::string wootz::sanitizeCheckpointKey(const std::string &Key) {
  std::string Out;
  for (char C : Key) {
    const bool Safe = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                      (C >= '0' && C <= '9') || C == '-' || C == '_' ||
                      C == '.';
    Out += Safe ? C : '_';
  }
  // The replacement above is lossy ("b|a" and "b:a" both become "b_a"),
  // so distinct keys could silently overwrite each other's files. A
  // short hash of the original key disambiguates them.
  Out += "-" + toHex(fnv1a(Key), 8);
  return Out;
}

std::string wootz::checkpointFileName(const std::string &Key) {
  return sanitizeCheckpointKey(Key) + ".ckpt";
}

void CheckpointStore::capture(const std::string &Key, Graph &Source,
                              const std::string &Prefix,
                              const std::vector<std::string> &Layers) {
  TensorBundle Bundle;
  for (const std::string &LayerName : Layers) {
    Layer &L = Source.layer(Prefix + "/" + LayerName);
    const std::vector<Param *> State = L.state();
    for (size_t K = 0; K < State.size(); ++K)
      Bundle[LayerName + "/s" + std::to_string(K)] = State[K]->Value;
  }
  insert(Key, std::move(Bundle));
}

void CheckpointStore::insert(const std::string &Key, TensorBundle Bundle) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Bundles[Key] = std::move(Bundle);
}

Error CheckpointStore::restore(const std::string &Key, Graph &Target,
                               const std::string &Prefix) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Bundles.find(Key);
  if (It == Bundles.end())
    return Error::failure("no checkpoint stored under key '" + Key + "'");
  for (const auto &[EntryName, Value] : It->second) {
    // Entry names come from disk as well as from capture(), so malformed
    // ones must be recoverable errors, not assertions that compile out.
    const size_t Slash = EntryName.rfind("/s");
    if (Slash == std::string::npos)
      return Error::failure("checkpoint '" + Key +
                            "' has a malformed entry name '" + EntryName +
                            "' (expected '<layer>/s<index>')");
    const std::string LayerName = EntryName.substr(0, Slash);
    Result<long long> StateIndex = parseInteger(EntryName.substr(Slash + 2));
    if (!StateIndex || *StateIndex < 0)
      return Error::failure("checkpoint '" + Key + "' entry '" +
                            EntryName +
                            "' has a malformed state index");
    const std::string NodeName = Prefix + "/" + LayerName;
    if (!Target.hasNode(NodeName))
      continue;
    const std::vector<Param *> State = Target.layer(NodeName).state();
    if (static_cast<size_t>(*StateIndex) >= State.size())
      return Error::failure(
          "checkpoint '" + Key + "' entry '" + EntryName +
          "' indexes state tensor " + std::to_string(*StateIndex) +
          " but layer '" + NodeName + "' only has " +
          std::to_string(State.size()));
    Param *Slot = State[*StateIndex];
    if (Slot->Value.shape() != Value.shape())
      return Error::failure("checkpoint '" + Key + "' entry '" + EntryName +
                            "' has shape " + Value.shape().str() +
                            " but the target expects " +
                            Slot->Value.shape().str());
    Slot->Value = Value;
  }
  return Error::success();
}

Result<TensorBundle>
CheckpointStore::bundleCopy(const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Bundles.find(Key);
  if (It == Bundles.end())
    return Error::failure("no checkpoint stored under key '" + Key + "'");
  return It->second;
}

std::vector<std::string> CheckpointStore::keys() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::string> Out;
  Out.reserve(Bundles.size());
  for (const auto &[Key, Bundle] : Bundles)
    Out.push_back(Key);
  return Out;
}

Error CheckpointStore::saveTo(const std::string &Directory) const {
  std::error_code FsError;
  std::filesystem::create_directories(Directory, FsError);
  if (FsError)
    return Error::failure("cannot create checkpoint directory '" +
                          Directory + "'");
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Manifest;
  Manifest += JsonObject()
                  .field("type", "wootz-checkpoint-manifest")
                  .field("version", ManifestVersion)
                  .field("entries", Bundles.size())
                  .str() +
              "\n";
  for (const auto &[Key, Bundle] : Bundles) {
    const std::string FileName = checkpointFileName(Key);
    if (Error E = saveTensors(Directory + "/" + FileName, Bundle))
      return E;
    Manifest +=
        JsonObject().field("key", Key).field("file", FileName).str() +
        "\n";
  }
  // The manifest is renamed into place last, so a crash mid-save leaves
  // either the previous manifest (pointing at still-valid files) or the
  // complete new one — never a manifest referencing half-written files.
  return writeFileAtomic(Directory + "/MANIFEST.json", Manifest);
}

/// Parses the versioned JSONL manifest into key -> file-name pairs.
static Result<std::vector<std::pair<std::string, std::string>>>
parseJsonManifest(const std::string &Text) {
  std::vector<std::pair<std::string, std::string>> Entries;
  bool SawHeader = false;
  for (const std::string &Line : splitLines(Text)) {
    if (trim(Line).empty())
      continue;
    Result<std::map<std::string, std::string>> Object =
        parseFlatJsonObject(Line);
    if (!Object)
      return Error::failure("malformed manifest line '" + Line +
                            "': " + Object.message());
    if (!SawHeader) {
      auto Type = Object->find("type");
      auto Version = Object->find("version");
      if (Type == Object->end() ||
          Type->second != "wootz-checkpoint-manifest" ||
          Version == Object->end())
        return Error::failure(
            "manifest does not start with a wootz-checkpoint-manifest "
            "header");
      Result<long long> Parsed = parseInteger(Version->second);
      if (!Parsed || *Parsed < 1 || *Parsed > ManifestVersion)
        return Error::failure("unsupported manifest version '" +
                              Version->second + "'");
      SawHeader = true;
      continue;
    }
    auto Key = Object->find("key");
    auto File = Object->find("file");
    if (Key == Object->end() || File == Object->end())
      return Error::failure("manifest line '" + Line +
                            "' lacks key/file fields");
    Entries.emplace_back(Key->second, File->second);
  }
  if (!SawHeader)
    return Error::failure("manifest has no header line");
  return Entries;
}

Result<CheckpointLoadReport>
CheckpointStore::loadFrom(const std::string &Directory,
                          CheckpointLoadMode Mode) {
  Result<std::string> Manifest = readFile(Directory + "/MANIFEST.json");
  if (!Manifest)
    return Error::failure("cannot read MANIFEST.json in '" + Directory +
                          "'");
  Result<std::vector<std::pair<std::string, std::string>>> Entries =
      parseJsonManifest(*Manifest);
  if (!Entries)
    return Entries.takeError();

  if (Mode == CheckpointLoadMode::Replace) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Bundles.clear();
  }

  // One bad file must not shadow the good entries behind it: record the
  // failure, move on, and let the caller re-train just the missing keys.
  CheckpointLoadReport Report;
  for (const auto &[Key, FileName] : *Entries) {
    Result<TensorBundle> Bundle = loadTensors(Directory + "/" + FileName);
    if (!Bundle) {
      Report.EntryErrors.push_back(Key + ": " + Bundle.message());
      continue;
    }
    insert(Key, Bundle.take());
    ++Report.Loaded;
  }
  return Report;
}
