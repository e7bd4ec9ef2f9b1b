#include "vision/scene_graph_generator.h"

#include <unordered_map>

namespace svqa::vision {

SceneGraphGenerator::SceneGraphGenerator(
    SimulatedDetector detector, std::shared_ptr<const RelationModel> model,
    InferenceMode mode)
    : detector_(std::move(detector)), model_(std::move(model)), mode_(mode) {}

SceneGraphResult SceneGraphGenerator::Generate(const Scene& scene,
                                               SimClock* clock) const {
  SceneGraphResult result;
  result.scene_id = scene.id;
  result.detections = detector_.Detect(scene);

  const auto& dets = result.detections;
  // Vertex per detection. Anonymous labels are made unique within the
  // image ("dog#0", "dog#1"); named entities keep their name.
  std::vector<graph::VertexId> vertex_of(dets.size());
  std::unordered_map<std::string, int> label_counts;
  for (std::size_t i = 0; i < dets.size(); ++i) {
    const Detection& d = dets[i];
    const bool named = d.truth_index >= 0 &&
                       !scene.objects[d.truth_index].instance.empty() &&
                       d.label == scene.objects[d.truth_index].instance;
    std::string label = d.label;
    std::string category = d.label;
    if (named) {
      category = scene.objects[d.truth_index].category;
    } else {
      const int k = label_counts[d.label]++;
      label = d.label + "#" + std::to_string(k);
    }
    vertex_of[i] =
        result.graph.AddVertex(std::move(label), std::move(category),
                               scene.id);
  }

  // Attribute vertices: one per predicted attribute, linked by
  // has-attribute edges (the substrate for "what color" questions).
  for (std::size_t i = 0; i < dets.size(); ++i) {
    for (const std::string& attr : dets[i].attributes) {
      const int k = label_counts[attr]++;
      const graph::VertexId av = result.graph.AddVertex(
          attr + "#" + std::to_string(k), attr, scene.id);
      if (result.graph.AddEdge(vertex_of[i], av, "has-attribute").ok()) {
        ++result.attribute_edges;
      }
    }
  }

  // Pairwise relation inference over all ordered pairs. Pairs whose
  // boxes are far apart are pruned up front (standard union-box
  // candidate filtering); the model's distance penalty handles the rest.
  PairLogits scratch;
  for (std::size_t i = 0; i < dets.size(); ++i) {
    for (std::size_t j = 0; j < dets.size(); ++j) {
      if (i == j) continue;
      if (BoxCenterDistance(dets[i].box, dets[j].box) > 0.6) continue;
      PredictedRelation rel;
      const bool fired =
          PredictRelation(*model_, scene, dets, static_cast<int>(i),
                          static_cast<int>(j), mode_, &scratch, &rel);
      result.candidates.push_back(rel);
      if (fired) {
        result.relations.push_back(rel);
        // Duplicate predictions for the same pair/predicate cannot occur
        // (one prediction per ordered pair), so AddEdge only fails for
        // self-loops, which are excluded above: a deliberate discard.
        (void)result.graph.AddEdge(vertex_of[i], vertex_of[j],
                                   rel.predicate);
      }
    }
  }

  if (clock != nullptr) clock->Charge(CostKind::kSceneGraphGen);
  return result;
}

std::vector<SceneGraphResult> SceneGraphGenerator::GenerateAll(
    const std::vector<Scene>& scenes, SimClock* clock) const {
  std::vector<SceneGraphResult> out;
  out.reserve(scenes.size());
  for (const Scene& scene : scenes) out.push_back(Generate(scene, clock));
  return out;
}

}  // namespace svqa::vision
