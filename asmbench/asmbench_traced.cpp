// asmbench_traced: the benchmark's traced run.
//
//   asmbench_traced --fastq READS.fastq --threads 2 --theta 2 --labeling lr
//       --contigs OUT.fasta --trace-json TRACE.json --run-label hc2-lr/seed=1
//
// Replays Assembler::FinishAssembly's order on the FASTQ through the
// public operation functions only:
//   BuildDbg(ReadStream&) -> LabelContigs -> MergeContigs -> FilterBubbles
//   -> RemoveTips -> LabelContigs -> MergeContigs -> CollectContigs
// and measures every call from outside: wall time, the VmHWM high-water
// mark (reset through /proc/self/clear_refs before the call), and the
// counts the call returns in its RunStats / KmerCountStats / result
// struct. Before the pipeline it drains the FASTQ once through
// OpenFastxFiles + ReadStream::Next alone, to price the input layer.
//
// Writes the contigs as FASTA (so the caller can check them against the
// untraced ppa_assemble run), one Chrome-trace span per call, parented to
// a span for the whole workload run, and prints the per-layer metrics as
// one JSON object.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/assembler.h"
#include "core/bubble_filter.h"
#include "core/contig_labeling.h"
#include "core/contig_merging.h"
#include "core/dbg_construction.h"
#include "core/tip_removal.h"
#include "flags.h"
#include "io/fasta_writer.h"
#include "io/fastx.h"
#include "io/read_stream.h"
#include "util/json.h"

namespace {

using Clock = std::chrono::steady_clock;

/// VmHWM of this process, in MB.
double ReadHwmMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  asmbench::Die("no VmHWM in /proc/self/status");
}

/// Resets VmHWM to the current RSS, so the next read covers one call.
void ResetHwm() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs.good()) asmbench::Die("cannot write clear_refs");
}

struct Span {
  std::string name;
  double start_us = 0;
  double dur_us = 0;
  int id = 0;
  int parent = 0;  // 0 = none
};

/// One call measured from outside: duration and the RSS high-water mark.
struct CallCost {
  double seconds = 0;
  double hwm_mb = 0;
};

/// Collects one span per measured call, all parented to the run span.
class Tracer {
 public:
  template <typename Fn>
  CallCost Call(const std::string& name, Fn&& fn) {
    ResetHwm();
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    CallCost cost;
    cost.hwm_mb = ReadHwmMb();
    cost.seconds = std::chrono::duration<double>(end - start).count();
    spans_.push_back(
        {name, Micros(start), Micros(end) - Micros(start), NextId(), kRunId});
    return cost;
  }

  /// Writes the spans, preceded by the run span covering all of them, as
  /// Chrome trace_event JSON.
  void WriteJson(const std::string& path, const std::string& run_label) {
    const double end_us = Micros(Clock::now());
    std::vector<Span> all;
    all.push_back({"workload_run " + run_label, 0, end_us, kRunId, 0});
    all.insert(all.end(), spans_.begin(), spans_.end());
    std::ofstream out(path, std::ios::trunc);
    ppa::JsonWriter json(out);
    json.BeginObject();
    json.Key("traceEvents");
    json.BeginArray();
    for (const Span& span : all) {
      json.BeginObject();
      json.Key("name");
      json.Value(span.name);
      json.Key("cat");
      json.Value("asmbench");
      json.Key("ph");
      json.Value("X");
      json.Key("ts");
      json.Value(span.start_us);
      json.Key("dur");
      json.Value(span.dur_us);
      json.Key("pid");
      json.Value(uint64_t{1});
      json.Key("tid");
      json.Value(uint64_t{1});
      json.Key("args");
      json.BeginObject();
      json.Key("span_id");
      json.Value(static_cast<uint64_t>(span.id));
      json.Key("parent_id");
      json.Value(static_cast<uint64_t>(span.parent));
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.Key("displayTimeUnit");
    json.Value("ms");
    json.EndObject();
    out << '\n';
    if (!out.good()) asmbench::Die("cannot write " + path);
  }

 private:
  static constexpr int kRunId = 1;

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  int NextId() { return kRunId + 1 + static_cast<int>(spans_.size()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace

int main(int argc, char** argv) {
  const asmbench::Flags flags(argc, argv,
                              {"fastq", "threads", "theta", "labeling",
                               "contigs", "trace-json", "run-label"});
  ppa::AssemblerOptions options;
  options.num_threads = static_cast<unsigned>(flags.U64("threads"));
  options.coverage_threshold = static_cast<uint32_t>(flags.U64("theta"));
  const std::string& labeling = flags.Str("labeling");
  if (labeling != "lr" && labeling != "sv") {
    asmbench::Die("--labeling: expected lr or sv");
  }
  const ppa::LabelingMethod method = labeling == "lr"
                                         ? ppa::LabelingMethod::kListRanking
                                         : ppa::LabelingMethod::kSimplifiedSv;
  const std::vector<std::string> inputs = {flags.Str("fastq")};

  Tracer tracer;
  std::map<std::string, double> m;

  // ---- Input layer alone. -------------------------------------------------
  uint64_t bases = 0;
  const CallCost io = tracer.Call("io.drain", [&] {
    ppa::ReadStream stream(ppa::OpenFastxFiles(inputs));
    ppa::ReadBatch batch;
    while (stream.Next(&batch)) bases += batch.bases;
  });
  m["io.read_s"] = io.seconds;
  m["io.mbases_per_s"] = static_cast<double>(bases) / io.seconds / 1e6;

  // ---- The pipeline, in FinishAssembly's order. ---------------------------
  ppa::PipelineStats stats;
  ppa::DbgResult dbg;
  const CallCost build = tracer.Call("BuildDbg", [&] {
    ppa::ReadStream stream(ppa::OpenFastxFiles(inputs));
    dbg = ppa::BuildDbg(stream, options, &stats);
  });
  double traced_s = build.seconds;
  m["dbg_construction.call_s"] = build.seconds;
  m["dbg_construction.rss_hwm_mb"] = build.hwm_mb;
  const ppa::KmerCountStats& count = dbg.count_stats;
  m["dbg.count.pass1_s"] = count.pass1_seconds;
  m["dbg.count.pass2_s"] = count.pass2_seconds;
  m["dbg.count.windows"] = static_cast<double>(count.total_windows);
  m["dbg.count.pass1_bytes"] = static_cast<double>(count.shuffled_bytes);
  m["dbg.count.distinct"] = static_cast<double>(count.distinct_mers);
  m["dbg.count.surviving"] = static_cast<double>(count.surviving_mers);
  const ppa::RunStats adjacency = stats.Aggregate("dbg-construction-phase2");
  m["dbg.adjacency.job_s"] = adjacency.wall_seconds;
  m["dbg.adjacency.pairs_shuffled"] =
      static_cast<double>(adjacency.pairs_shuffled);
  m["dbg.adjacency.message_bytes"] =
      static_cast<double>(adjacency.total_bytes());
  m["dbg.kmer_vertices"] = static_cast<double>(dbg.graph.live_size());

  ppa::AssemblyGraph& graph = dbg.graph;
  std::vector<uint32_t> contig_ordinals(options.num_workers, 0);
  double label_job_s = 0, label_hwm = 0, merge_job_s = 0, merge_hwm = 0;
  auto label_and_merge = [&](int round) {
    const std::string suffix = "#" + std::to_string(round);
    ppa::LabelingResult labels;
    const CallCost label = tracer.Call("LabelContigs" + suffix, [&] {
      labels = ppa::LabelContigs(graph, options, method, &stats);
    });
    traced_s += label.seconds;
    label_job_s += labels.total_seconds();
    label_hwm = std::max(label_hwm, label.hwm_mb);
    m["contig_labeling.call_s"] += label.seconds;
    m["contig_labeling.supersteps"] += labels.total_supersteps();
    m["contig_labeling.messages"] +=
        static_cast<double>(labels.total_messages());
    m["contig_labeling.message_bytes"] += static_cast<double>(
        labels.stats.total_bytes() + labels.cycle_sv_stats.total_bytes());
    m["contig_labeling.unambiguous"] +=
        static_cast<double>(labels.num_unambiguous);
    m["contig_labeling.cycle_vertices"] +=
        static_cast<double>(labels.num_cycle_vertices);

    ppa::MergeResult merged;
    const CallCost merge = tracer.Call("MergeContigs" + suffix, [&] {
      merged = ppa::MergeContigs(graph, labels, options, &contig_ordinals,
                                 &stats);
    });
    traced_s += merge.seconds;
    merge_job_s += merged.merge_stats.wall_seconds +
                   merged.link_stats.wall_seconds;
    merge_hwm = std::max(merge_hwm, merge.hwm_mb);
    m["contig_merging.call_s"] += merge.seconds;
    m["contig_merging.pairs_shuffled"] += static_cast<double>(
        merged.merge_stats.pairs_shuffled + merged.link_stats.pairs_shuffled);
    m["contig_merging.message_bytes"] += static_cast<double>(
        merged.merge_stats.total_bytes() + merged.link_stats.total_bytes());
    m["contig_merging.contigs_created"] +=
        static_cast<double>(merged.contigs_created);
  };

  label_and_merge(1);
  for (int round = 0; round < options.error_correction_rounds; ++round) {
    ppa::BubbleResult bubbles;
    const CallCost bubble = tracer.Call("FilterBubbles", [&] {
      bubbles = ppa::FilterBubbles(graph, options, &stats);
    });
    traced_s += bubble.seconds;
    m["bubble_filter.call_s"] += bubble.seconds;
    m["bubble_filter.contigs_pruned"] +=
        static_cast<double>(bubbles.contigs_pruned);

    ppa::TipResult tips;
    const CallCost tip = tracer.Call("RemoveTips", [&] {
      tips = ppa::RemoveTips(graph, options, &stats);
    });
    traced_s += tip.seconds;
    m["tip_removal.call_s"] += tip.seconds;
    m["tip_removal.supersteps"] += tips.stats.num_supersteps();
    m["tip_removal.vertices_removed"] +=
        static_cast<double>(tips.vertices_removed);

    label_and_merge(2 + round);
  }

  std::vector<ppa::ContigRecord> contigs;
  const CallCost collect = tracer.Call(
      "CollectContigs", [&] { contigs = ppa::CollectContigs(graph); });
  traced_s += collect.seconds;

  m["contig_labeling.job_s"] = label_job_s;
  m["contig_labeling.outside_job_s"] =
      m["contig_labeling.call_s"] - label_job_s;
  m["contig_labeling.ns_per_message"] =
      label_job_s * 1e9 / m["contig_labeling.messages"];
  m["contig_labeling.rss_hwm_mb"] = label_hwm;
  m["contig_merging.job_s"] = merge_job_s;
  m["contig_merging.outside_job_s"] = m["contig_merging.call_s"] - merge_job_s;
  m["contig_merging.rss_hwm_mb"] = merge_hwm;
  m["pipeline.traced_s"] = traced_s;
  m["pipeline.outside_jobs_s"] = traced_s - stats.total_wall_seconds();

  ppa::WriteContigsFasta(flags.Str("contigs"), contigs);
  tracer.WriteJson(flags.Str("trace-json"), flags.Str("run-label"));

  // All digits: byte counts exceed JsonWriter's 9 significant digits.
  const char* separator = "{";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", separator, name.c_str(), value);
    separator = ", ";
  }
  std::printf("}\n");
  return 0;
}
