#include "project.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace nldl::lint {

namespace {

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

/// Lexically normalize a '/'-separated relative path ("a/./b/../c" ->
/// "a/c").
std::string normalize(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t slash = path.find('/', begin);
    const std::size_t end = slash == std::string_view::npos ? path.size() : slash;
    const std::string_view part = path.substr(begin, end - begin);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    if (slash == std::string_view::npos) break;
    begin = slash + 1;
  }
  std::string out;
  for (const std::string_view part : parts) {
    if (!out.empty()) out += '/';
    out.append(part);
  }
  return out;
}

std::string_view dirname_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string_view()
                                         : path.substr(0, slash);
}

std::string_view stem_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.rfind('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

}  // namespace

DirRank classify_path(const LayerConfig& config, std::string_view path) {
  DirRank out;
  if (starts_with(path, "src/")) {
    const std::string_view rest = path.substr(4);
    const std::size_t slash = rest.find('/');
    if (slash == std::string_view::npos) {
      out.dir = "src";  // a file directly under src/ has no layer
      out.rank = -1;
      return out;
    }
    const std::string_view layer = rest.substr(0, slash);
    out.dir = "src/" + std::string(layer);
    out.rank = layer_rank(config, layer);
    return out;
  }
  const std::size_t slash = path.find('/');
  out.dir = std::string(slash == std::string_view::npos
                            ? path
                            : path.substr(0, slash));
  out.rank = kDriverRank;
  return out;
}

std::vector<std::string> harvest_exports(const FileScan& header) {
  const std::vector<Token>& toks = header.stream.tokens;
  const std::size_t n = toks.size();
  std::set<std::string> names;

  enum class Scope { kTransparent, kEnum };
  std::vector<Scope> scopes;  // only transparent-ish scopes are pushed
  int paren_depth = 0;
  bool saw_class = false;
  bool saw_namespace = false;
  bool saw_enum = false;

  auto is_p = [&](std::size_t i, std::string_view text) {
    return i < n && toks[i].kind == TokenKind::kPunct && toks[i].text == text;
  };
  auto is_id = [&](std::size_t i, std::string_view text) {
    return i < n && toks[i].kind == TokenKind::kIdentifier &&
           toks[i].text == text;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Token& tok = toks[i];
    if (tok.kind == TokenKind::kPunct) {
      if (tok.text == "(") ++paren_depth;
      if (tok.text == ")" && paren_depth > 0) --paren_depth;
      if (tok.text == "{") {
        if (saw_enum) {
          scopes.push_back(Scope::kEnum);
        } else if (saw_class || saw_namespace) {
          scopes.push_back(Scope::kTransparent);
        } else {
          // Opaque scope (function body, initializer, lambda): nothing
          // inside is a header export — skip to the matching brace.
          int depth = 1;
          while (++i < n && depth > 0) {
            if (toks[i].kind == TokenKind::kPunct) {
              if (toks[i].text == "{") ++depth;
              if (toks[i].text == "}") --depth;
            }
          }
          --i;  // the for-loop increment lands past the '}'
        }
        saw_class = saw_namespace = saw_enum = false;
        continue;
      }
      if (tok.text == "}") {
        if (!scopes.empty()) scopes.pop_back();
        saw_class = saw_namespace = saw_enum = false;
        continue;
      }
      if (tok.text == ";") {
        saw_class = saw_namespace = saw_enum = false;
      }
      continue;
    }
    if (tok.kind != TokenKind::kIdentifier) continue;

    const std::string_view id = tok.text;
    if (!scopes.empty() && scopes.back() == Scope::kEnum) {
      if (!is_keyword(id)) names.insert(std::string(id));
      continue;
    }
    if (is_keyword(id)) {
      if (id == "class" || id == "struct" || id == "union") saw_class = true;
      if (id == "namespace") saw_namespace = true;
      if (id == "enum") saw_enum = true;
      continue;
    }
    // #define NAME exports NAME even though the body is whatever follows.
    if (i >= 2 && is_id(i - 1, "define") && is_p(i - 2, "#")) {
      names.insert(std::string(id));
      continue;
    }
    if (paren_depth > 0) continue;  // parameter names are not exports
    const bool tagged =
        i >= 1 && (is_id(i - 1, "class") || is_id(i - 1, "struct") ||
                   is_id(i - 1, "union") || is_id(i - 1, "enum"));
    if (!tagged) {
      if (i >= 1 && (is_p(i - 1, "::") || is_p(i - 1, ".") ||
                     is_p(i - 1, "->"))) {
        continue;  // qualified or member access, declared elsewhere
      }
      // A namespace name is shared by every file in the project; treating
      // it as an export would make iwyu-lite vacuously satisfied.
      if (i >= 1 && is_id(i - 1, "namespace")) continue;
      if (!(is_p(i + 1, "(") || is_p(i + 1, "=") || is_p(i + 1, ";") ||
            is_p(i + 1, "{") || is_p(i + 1, "["))) {
        continue;
      }
    }
    names.insert(std::string(id));
  }
  return {names.begin(), names.end()};
}

std::string analyze_project(FileSet& files, const LayerConfig& config,
                            ProjectGraph* graph_out) {
  {
    const std::string config_error = validate_layer_config(config);
    if (!config_error.empty()) return config_error;
  }

  ProjectGraph local;
  ProjectGraph& graph = graph_out != nullptr ? *graph_out : local;
  graph.nodes.clear();
  graph.edges.clear();

  std::map<std::string, std::size_t> index_of;
  for (const auto& file : files) {
    const DirRank dr = classify_path(config, file->path);
    if (dr.rank < 0) {
      return "layer config error: '" + file->path + "' is in directory '" +
             dr.dir + "', which is not declared in the layer table "
             "(tools/nldl_lint/layers.cpp) — declare its rank";
    }
    index_of.emplace(file->path, graph.nodes.size());
    graph.nodes.push_back({file->path, dr.dir, dr.rank});
  }

  // Resolve quoted includes: includer's directory, then src/, then
  // tools/nldl_lint/. Unresolved means external — not a project edge.
  for (std::size_t from = 0; from < files.size(); ++from) {
    for (const IncludeDirective& inc : files[from]->includes) {
      const std::string_view here = dirname_of(files[from]->path);
      const std::string candidates[3] = {
          normalize(std::string(here) + "/" + inc.path),
          normalize("src/" + inc.path),
          normalize("tools/nldl_lint/" + inc.path),
      };
      for (const std::string& candidate : candidates) {
        const auto it = index_of.find(candidate);
        if (it != index_of.end()) {
          graph.edges.push_back({from, it->second, inc.line});
          break;
        }
      }
    }
  }

  // layer-violation: an edge is legal iff the includer is a driver tree,
  // both endpoints share a directory, the includer's rank is strictly
  // greater, or an explicit exception grants it.
  auto bare_layer = [](const std::string& dir) -> std::string_view {
    return starts_with(dir, "src/") ? std::string_view(dir).substr(4)
                                    : std::string_view(dir);
  };
  for (const ProjectGraph::Edge& edge : graph.edges) {
    const ProjectGraph::Node& from = graph.nodes[edge.from];
    const ProjectGraph::Node& to = graph.nodes[edge.to];
    if (from.rank == kDriverRank || from.dir == to.dir ||
        from.rank > to.rank) {
      continue;
    }
    const bool excepted = std::any_of(
        config.exceptions.begin(), config.exceptions.end(),
        [&](const LayerEdge& e) {
          return e.from == bare_layer(from.dir) && e.to == bare_layer(to.dir);
        });
    if (excepted) continue;
    report(*files[edge.from], edge.line, "layer-violation",
           "include of '" + to.path + "' (" + to.dir + ", rank " +
               std::to_string(to.rank) + ") from " + from.dir + " (rank " +
               std::to_string(from.rank) +
               ") contradicts the layer DAG — move the code, or declare a "
               "reviewed exception in tools/nldl_lint/layers.cpp");
  }

  // include-cycle: DFS three-color; every back edge closes a cycle and
  // is reported once, at the #include that closes it.
  {
    std::vector<std::vector<const ProjectGraph::Edge*>> out_edges(
        graph.nodes.size());
    for (const ProjectGraph::Edge& edge : graph.edges) {
      out_edges[edge.from].push_back(&edge);
    }
    std::vector<int> color(graph.nodes.size(), 0);  // 0 white 1 gray 2 black
    std::vector<std::size_t> stack_path;
    // Iterative DFS with an explicit frame stack (node, next-edge index).
    for (std::size_t root = 0; root < graph.nodes.size(); ++root) {
      if (color[root] != 0) continue;
      std::vector<std::pair<std::size_t, std::size_t>> frames{{root, 0}};
      color[root] = 1;
      stack_path.push_back(root);
      while (!frames.empty()) {
        auto& [node, next] = frames.back();
        if (next >= out_edges[node].size()) {
          color[node] = 2;
          stack_path.pop_back();
          frames.pop_back();
          continue;
        }
        const ProjectGraph::Edge* edge = out_edges[node][next++];
        if (color[edge->to] == 1) {
          std::string cycle;
          const auto begin = std::find(stack_path.begin(), stack_path.end(),
                                       edge->to);
          for (auto it = begin; it != stack_path.end(); ++it) {
            cycle += graph.nodes[*it].path + " -> ";
          }
          cycle += graph.nodes[edge->to].path;
          report(*files[edge->from], edge->line, "include-cycle",
                 "include closes a cycle: " + cycle +
                     " — break it with a forward declaration or an "
                     "interface split");
        } else if (color[edge->to] == 0) {
          color[edge->to] = 1;
          stack_path.push_back(edge->to);
          frames.emplace_back(edge->to, 0);
        }
      }
    }
  }

  // iwyu-lite. Export sets per node, with `// IWYU pragma: export`
  // includes contributing their target's exports transitively.
  {
    std::vector<std::set<std::string>> exports(graph.nodes.size());
    std::vector<bool> is_included(graph.nodes.size(), false);
    for (const ProjectGraph::Edge& edge : graph.edges) {
      is_included[edge.to] = true;
    }
    for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
      if (!is_included[i]) continue;
      std::vector<std::string> own = harvest_exports(*files[i]);
      exports[i].insert(own.begin(), own.end());
    }
    auto has_pragma = [&](const ProjectGraph::Edge& edge,
                          std::string_view pragma) {
      const auto& comments = files[edge.from]->stream.comment_by_line;
      return edge.line >= 1 && edge.line <= comments.size() &&
             comments[edge.line - 1].find(pragma) != std::string::npos;
    };
    // Fixpoint propagation over pragma-export edges (the graph is a DAG
    // in practice; the node-count bound terminates it regardless).
    for (std::size_t round = 0; round < graph.nodes.size(); ++round) {
      bool changed = false;
      for (const ProjectGraph::Edge& edge : graph.edges) {
        if (!has_pragma(edge, "IWYU pragma: export")) continue;
        const std::size_t before = exports[edge.from].size();
        exports[edge.from].insert(exports[edge.to].begin(),
                                  exports[edge.to].end());
        changed = changed || exports[edge.from].size() != before;
      }
      if (!changed) break;
    }
    for (const ProjectGraph::Edge& edge : graph.edges) {
      const ProjectGraph::Node& from = graph.nodes[edge.from];
      const ProjectGraph::Node& to = graph.nodes[edge.to];
      // foo.cpp -> foo.hpp in the same directory is the definition pair.
      if (dirname_of(from.path) == dirname_of(to.path) &&
          stem_of(from.path) == stem_of(to.path)) {
        continue;
      }
      if (has_pragma(edge, "IWYU pragma")) continue;  // export or keep
      const std::set<std::string>& names = exports[edge.to];
      const bool used = std::any_of(
          names.begin(), names.end(), [&](const std::string& name) {
            return files[edge.from]->idents.count(name) != 0;
          });
      if (used) continue;
      report(*files[edge.from], edge.line, "iwyu-lite",
             "unused include: no name exported by '" + to.path +
                 "' appears in this file — delete the include, or mark a "
                 "deliberate re-export with '// IWYU pragma: export'");
    }
  }

  return std::string();
}

std::string graph_to_dot(const ProjectGraph& graph) {
  // Condense to one node per directory, edges weighted by file-level
  // include count; cluster directories by rank.
  std::map<std::string, int> dirs;  // dir -> rank
  std::map<std::pair<std::string, std::string>, std::size_t> weights;
  for (const ProjectGraph::Node& node : graph.nodes) {
    dirs.emplace(node.dir, node.rank);
  }
  for (const ProjectGraph::Edge& edge : graph.edges) {
    const std::string& from = graph.nodes[edge.from].dir;
    const std::string& to = graph.nodes[edge.to].dir;
    if (from != to) ++weights[{from, to}];
  }
  std::map<int, std::vector<std::string>> by_rank;
  for (const auto& [dir, rank] : dirs) by_rank[rank].push_back(dir);

  auto id = [](std::string_view dir) {
    std::string out(dir);
    std::replace(out.begin(), out.end(), '/', '_');
    return out;
  };
  std::string dot = "digraph nldl_includes {\n  rankdir=BT;\n"
                    "  node [shape=box, fontname=\"monospace\"];\n";
  for (const auto& [rank, members] : by_rank) {
    dot += "  { rank=same;";
    for (const std::string& dir : members) {
      dot += ' ';
      dot += id(dir);
      dot += " [label=\"";
      dot += dir;
      if (rank == kDriverRank) {
        dot += " (driver)";
      } else {
        dot += " (rank ";
        dot += std::to_string(rank);
        dot += ')';
      }
      dot += "\"];";
    }
    dot += " }\n";
  }
  for (const auto& [edge, weight] : weights) {
    dot += "  ";
    dot += id(edge.first);
    dot += " -> ";
    dot += id(edge.second);
    dot += " [label=\"";
    dot += std::to_string(weight);
    dot += "\"];\n";
  }
  dot += "}\n";
  return dot;
}

std::string graph_to_json(const ProjectGraph& graph,
                          const LayerConfig& config) {
  std::string json = "{\n  \"layers\": [\n";
  for (std::size_t i = 0; i < config.layers.size(); ++i) {
    json += "    {\"dir\": \"" + config.layers[i].dir +
            "\", \"rank\": " + std::to_string(config.layers[i].rank) + "}" +
            (i + 1 < config.layers.size() ? ",\n" : "\n");
  }
  json += "  ],\n  \"nodes\": [\n";
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const ProjectGraph::Node& node = graph.nodes[i];
    json += "    {\"path\": \"" + node.path + "\", \"dir\": \"" + node.dir +
            "\", \"rank\": " + std::to_string(node.rank) + "}" +
            (i + 1 < graph.nodes.size() ? ",\n" : "\n");
  }
  json += "  ],\n  \"edges\": [\n";
  for (std::size_t i = 0; i < graph.edges.size(); ++i) {
    const ProjectGraph::Edge& edge = graph.edges[i];
    json += "    {\"from\": \"" + graph.nodes[edge.from].path +
            "\", \"to\": \"" + graph.nodes[edge.to].path +
            "\", \"line\": " + std::to_string(edge.line) + "}" +
            (i + 1 < graph.edges.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";
  return json;
}

}  // namespace nldl::lint
