//===- train/CheckpointStore.cpp -----------------------------------------------===//

#include "src/train/CheckpointStore.h"

#include "src/support/Hash.h"
#include "src/support/StringUtils.h"

using namespace wootz;

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
