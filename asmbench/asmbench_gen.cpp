// asmbench_gen: writes one benchmark workload's inputs from its seeds.
//
//   asmbench_gen --name HC-2-sim --out DIR/reads
//       --genome-length 500000 --repeat-families 10 --repeat-length 300
//       --repeat-copies 5 --genome-seed 1002
//       --read-length 100 --coverage 30 --error-rate 0.005 --read-seed 2002
//
// Generates the reference with sim::GenerateGenome, simulates reads with
// SimulateReads and writes <out>.fastq and <out>.ref.fasta through
// ExportDatasetFastq (which streams the reads with ExportReadsFastq). The
// assembler later receives only these files. Prints one JSON object: the
// set-up time of this generation, the input size, and the provenance of the
// build (bench/bench_common.h).
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "flags.h"
#include "sim/datasets.h"
#include "sim/fastq_export.h"
#include "sim/genome.h"
#include "sim/read_simulator.h"

int main(int argc, char** argv) {
  const asmbench::Flags flags(
      argc, argv,
      {"name", "out", "genome-length", "repeat-families", "repeat-length",
       "repeat-copies", "genome-seed", "read-length", "coverage",
       "error-rate", "read-seed"});

  ppa::GenomeConfig genome;
  genome.length = flags.U64("genome-length");
  genome.repeat_families = static_cast<uint32_t>(flags.U64("repeat-families"));
  genome.repeat_length = static_cast<uint32_t>(flags.U64("repeat-length"));
  genome.repeat_copies = static_cast<uint32_t>(flags.U64("repeat-copies"));
  genome.seed = flags.U64("genome-seed");

  ppa::ReadSimConfig sim;
  sim.read_length = static_cast<uint32_t>(flags.U64("read-length"));
  sim.coverage = flags.Double("coverage");
  sim.error_rate = flags.Double("error-rate");
  sim.seed = flags.U64("read-seed");

  const auto start = std::chrono::steady_clock::now();
  ppa::Dataset dataset;
  dataset.name = flags.Str("name");
  dataset.reference = ppa::GenerateGenome(genome);
  dataset.reads = ppa::SimulateReads(dataset.reference, sim);
  ppa::ExportDatasetFastq(dataset, flags.Str("out"));
  const double setup_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  uint64_t bases = 0;
  for (const ppa::Read& read : dataset.reads) bases += read.bases.size();
  std::printf("{\n  \"setup_s\": %.9f,\n  \"reads\": %zu,\n  \"bases\": %llu,\n"
              "  \"reference_bp\": %zu,\n%s  \"tool\": \"asmbench_gen\"\n}\n",
              setup_s, dataset.reads.size(),
              static_cast<unsigned long long>(bases),
              dataset.reference.size(),
              ppa::bench::JsonProvenanceFields().c_str());
  return 0;
}
