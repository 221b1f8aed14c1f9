// asmbench_eval: QUAST-style quality of one contig FASTA.
//
//   asmbench_eval --reference REF.fasta --contigs CONTIGS.fasta --min-contig 500
//
// Runs quality::EvaluateAssembly against the workload's generated
// reference and prints the report as one JSON object. Deterministic: the
// same contigs always give the same numbers.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dna/read.h"
#include "dna/sequence.h"
#include "flags.h"
#include "quality/quast.h"

int main(int argc, char** argv) {
  const asmbench::Flags flags(argc, argv,
                              {"reference", "contigs", "min-contig"});

  const std::vector<ppa::Read> ref =
      ppa::ParseFasta(ppa::ReadFile(flags.Str("reference")));
  if (ref.size() != 1) asmbench::Die("reference must hold one record");
  const ppa::PackedSequence reference =
      ppa::PackedSequence::FromString(ref[0].bases);

  std::vector<std::string> contigs;
  for (ppa::Read& r : ppa::ParseFasta(ppa::ReadFile(flags.Str("contigs")))) {
    contigs.push_back(std::move(r.bases));
  }

  ppa::QuastConfig config;
  config.min_contig = flags.U64("min-contig");
  const ppa::QuastReport q = ppa::EvaluateAssembly(contigs, &reference, config);
  std::printf(
      "{\"contigs\": %zu, \"assessed_contigs\": %zu, \"total_length\": %llu, "
      "\"n50\": %llu, \"largest_contig\": %llu, \"genome_fraction\": %.6f, "
      "\"misassemblies\": %zu, \"unaligned_length\": %llu}\n",
      contigs.size(), q.num_contigs,
      static_cast<unsigned long long>(q.total_length),
      static_cast<unsigned long long>(q.n50),
      static_cast<unsigned long long>(q.largest_contig), q.genome_fraction,
      q.misassemblies, static_cast<unsigned long long>(q.unaligned_length));
  return 0;
}
