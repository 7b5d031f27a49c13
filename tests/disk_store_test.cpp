// The persistent disk-backed warm cache: the artifact codec
// (core/artifact_codec), the crash-safe store (svc/disk_store), and the
// AnalysisService spill/warm-start hooks behind sitime_serve --cache-dir.
//
// The contracts under test, in the acceptance wording:
//   - a killed-and-restarted service serves spilled designs from disk as
//     pure hits (zero decompose re-runs) with canonical reports
//     byte-identical to the cold pass, at any worker count;
//   - truncated / bit-flipped / zero-length / stale-version store files
//     are rejected AND deleted at boot, degrading to cold runs — never a
//     crash, never a wrong answer;
//   - a crash mid-write (temp file present, rename never happened)
//     leaves the store servable.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/fault.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/artifact_codec.hpp"
#include "core/report.hpp"
#include "svc/analysis_service.hpp"
#include "svc/disk_store.hpp"

namespace sitime {
namespace {

namespace fs = std::filesystem;

/// A fresh store directory per test, removed on destruction.
struct TempDir {
  TempDir() {
    std::string pattern =
        (fs::temp_directory_path() / "sitime_store_XXXXXX").string();
    path = ::mkdtemp(pattern.data());
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

svc::AnalysisRequest bench_request(const std::string& name,
                                   svc::RequestMode mode =
                                       svc::RequestMode::derive) {
  const auto& bench = benchdata::benchmark(name);
  svc::AnalysisRequest request;
  request.name = bench.name;
  request.astg = bench.astg;
  request.eqn = bench.eqn;
  request.mode = mode;
  return request;
}

/// `report` with display name `name` and the cache provenance of
/// `response` stamped on, the way check_hazard renders a response.
core::FlowReport stamped(const core::FlowReport& report,
                         const std::string& name,
                         const svc::AnalysisResponse& response) {
  core::FlowReport copy = report;
  copy.design = name;
  copy.cache_state = response.cache_state;
  copy.phases_run = response.phases_run;
  return copy;
}

svc::ServiceOptions store_options(const std::string& dir, int jobs = 1) {
  svc::ServiceOptions options;
  options.cache_dir = dir;
  options.jobs = jobs;
  return options;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

core::PersistedArtifact sample_artifact(bool with_report) {
  core::PersistedArtifact artifact;
  artifact.canonical = "astg\x1f...full canonical content...";
  artifact.key_hex = "00f00baa00f00baa";
  artifact.stg_canonical = ".model m\n.end\n";
  artifact.netlist_eqn = "[x] = a & b;\n";
  artifact.explicit_netlist = true;
  artifact.completed =
      with_report ? core::Phase::derived : core::Phase::verified;
  if (!with_report) {
    artifact.verify_offender = "g7";
    return artifact;
  }
  artifact.has_report = true;
  artifact.report.design = "m";
  artifact.report.content_hash = artifact.key_hex;
  artifact.report.state_count = 12;
  artifact.report.gate_count = 3;
  artifact.report.input_count = 2;
  artifact.report.output_count = 1;
  artifact.report.mg_component_count = 1;
  artifact.report.jobs = 4;
  artifact.report.expand_steps = 17;
  artifact.report.expand_subtasks = 2;
  artifact.report.cache_hits = 1;
  artifact.report.cache_misses = 2;
  artifact.report.seconds = 0.25;
  artifact.report.decompose_seconds = 0.125;
  artifact.report.expand_seconds = 0.0625;
  artifact.report.before = {{"x", "a+", "b-", 2}, {"x", "c+", "d+", 1}};
  artifact.report.after = {{"x", "a+", "b-", 2}};
  artifact.report.gates.push_back(
      {"x", {{"x", "a+", "b-", 2}}, {{"x", "a+", "b-", 2}}});
  return artifact;
}

void expect_equal(const core::PersistedArtifact& a,
                  const core::PersistedArtifact& b) {
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.key_hex, b.key_hex);
  EXPECT_EQ(a.stg_canonical, b.stg_canonical);
  EXPECT_EQ(a.netlist_eqn, b.netlist_eqn);
  EXPECT_EQ(a.explicit_netlist, b.explicit_netlist);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.verify_offender, b.verify_offender);
  ASSERT_EQ(a.has_report, b.has_report);
  if (!a.has_report) return;
  EXPECT_EQ(a.report.design, b.report.design);
  EXPECT_EQ(a.report.content_hash, b.report.content_hash);
  EXPECT_EQ(a.report.state_count, b.report.state_count);
  EXPECT_EQ(a.report.jobs, b.report.jobs);
  EXPECT_EQ(a.report.expand_steps, b.report.expand_steps);
  EXPECT_EQ(a.report.seconds, b.report.seconds);
  ASSERT_EQ(a.report.before.size(), b.report.before.size());
  for (std::size_t i = 0; i < a.report.before.size(); ++i) {
    EXPECT_EQ(a.report.before[i].gate, b.report.before[i].gate);
    EXPECT_EQ(a.report.before[i].before, b.report.before[i].before);
    EXPECT_EQ(a.report.before[i].after, b.report.before[i].after);
    EXPECT_EQ(a.report.before[i].weight, b.report.before[i].weight);
  }
  EXPECT_EQ(a.report.after.size(), b.report.after.size());
  ASSERT_EQ(a.report.gates.size(), b.report.gates.size());
  for (std::size_t i = 0; i < a.report.gates.size(); ++i) {
    EXPECT_EQ(a.report.gates[i].gate, b.report.gates[i].gate);
    EXPECT_EQ(a.report.gates[i].before.size(),
              b.report.gates[i].before.size());
    EXPECT_EQ(a.report.gates[i].after.size(),
              b.report.gates[i].after.size());
  }
  // Nothing rendered is stored, so every rendering must come out of the
  // decoded fields alone.
  EXPECT_EQ(core::to_canonical_json(a.report),
            core::to_canonical_json(b.report));
  EXPECT_EQ(core::to_json(a.report), core::to_json(b.report));
}

// ---- artifact codec --------------------------------------------------------

TEST(ArtifactCodec, RoundTripsEveryFieldWithAndWithoutReport) {
  for (const bool with_report : {true, false}) {
    const core::PersistedArtifact original = sample_artifact(with_report);
    const std::string bytes = core::encode_artifact(original);
    core::PersistedArtifact decoded;
    std::string why;
    ASSERT_EQ(core::decode_artifact(bytes, decoded, &why),
              core::ArtifactDecodeStatus::ok)
        << why;
    expect_equal(original, decoded);
  }
}

TEST(ArtifactCodec, RejectsTruncationAtEveryLength) {
  const std::string bytes = core::encode_artifact(sample_artifact(true));
  core::PersistedArtifact decoded;
  for (std::size_t length = 0; length < bytes.size();
       length += length < 32 ? 1 : 7) {
    EXPECT_EQ(core::decode_artifact(bytes.substr(0, length), decoded),
              core::ArtifactDecodeStatus::corrupt)
        << "length " << length;
  }
  // Trailing garbage is just as invalid as missing bytes.
  EXPECT_EQ(core::decode_artifact(bytes + "x", decoded),
            core::ArtifactDecodeStatus::corrupt);
}

TEST(ArtifactCodec, RejectsBitFlipsAnywhereInThePayload) {
  const std::string bytes = core::encode_artifact(sample_artifact(true));
  core::PersistedArtifact decoded;
  for (std::size_t at = 24; at < bytes.size(); at += 11) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    EXPECT_EQ(core::decode_artifact(flipped, decoded),
              core::ArtifactDecodeStatus::corrupt)
        << "flip at " << at;
  }
}

TEST(ArtifactCodec, StaleFormatVersionIsAVersionMismatchNotCorruption) {
  std::string bytes = core::encode_artifact(sample_artifact(true));
  bytes[4] = static_cast<char>(bytes[4] + 1);  // u32 LE version low byte
  core::PersistedArtifact decoded;
  std::string why;
  EXPECT_EQ(core::decode_artifact(bytes, decoded, &why),
            core::ArtifactDecodeStatus::version_mismatch);
  EXPECT_NE(why.find("version"), std::string::npos);
  // Bad magic is NOT a version mismatch — it is not our file at all.
  bytes[0] = 'X';
  EXPECT_EQ(core::decode_artifact(bytes, decoded),
            core::ArtifactDecodeStatus::corrupt);
}

// ---- DiskStore -------------------------------------------------------------

TEST(DiskStore, SaveIsAtomicAndSurvivesReload) {
  TempDir dir;
  svc::DiskStore store(dir.path);
  ASSERT_TRUE(store.ok()) << store.init_error();
  ASSERT_TRUE(store.save("abcd1234abcd1234", "payload bytes"));
  EXPECT_EQ(store.writes(), 1);
  const std::vector<std::string> files = store.list_files();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], store.path_for("abcd1234abcd1234"));
  std::string bytes;
  ASSERT_TRUE(store.read_file(files[0], bytes));
  EXPECT_EQ(bytes, "payload bytes");
  // Overwrite goes through the same temp + rename path.
  ASSERT_TRUE(store.save("abcd1234abcd1234", "newer"));
  ASSERT_TRUE(store.read_file(files[0], bytes));
  EXPECT_EQ(bytes, "newer");
  EXPECT_EQ(store.list_files().size(), 1u);
}

TEST(DiskStore, ConstructionSweepsCrashedTempFiles) {
  TempDir dir;
  write_bytes(dir.path + "/0011223344556677.tmp", "half-written");
  write_bytes(dir.path + "/0011223344556677.sit", "complete old bytes");
  svc::DiskStore store(dir.path);
  ASSERT_TRUE(store.ok()) << store.init_error();
  EXPECT_FALSE(fs::exists(dir.path + "/0011223344556677.tmp"));
  // The previous COMPLETE file is untouched: a crash mid-write never
  // damages the bytes that were already durable.
  EXPECT_EQ(read_bytes(dir.path + "/0011223344556677.sit"),
            "complete old bytes");
}

TEST(DiskStore, UnusableDirectoryFailsOpenWithoutThrowing) {
  svc::DiskStore store("");
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.init_error().empty());
  svc::DiskStore under_file("/dev/null/not-a-dir");
  EXPECT_FALSE(under_file.ok());
}

// ---- service spill + warm start -------------------------------------------

TEST(DiskWarmCache, RestartServesSpilledDesignsAsDiskHits) {
  TempDir dir;
  const std::vector<std::string> designs = {"imec-ram-read-sbuf",
                                            "imec-sbuf-read-ctl"};
  std::map<std::string, svc::AnalysisResponse> cold;
  {
    svc::AnalysisService service(store_options(dir.path));
    for (const std::string& name : designs) {
      const svc::AnalysisResponse response =
          service.analyze(bench_request(name));
      ASSERT_TRUE(response.ok) << response.error;
      ASSERT_NE(response.canonical_json, nullptr);
      ASSERT_NE(response.report, nullptr);
      cold[name] = response;
    }
    const svc::CacheStats stats = service.stats();
    EXPECT_EQ(stats.disk_writes, 2);
    EXPECT_EQ(stats.disk_write_errors, 0);
  }
  ASSERT_EQ(svc::DiskStore(dir.path).list_files().size(), 2u);

  // "Restart": a brand-new service (nothing in memory) over the same
  // directory, at BOTH worker counts — the store is jobs-independent.
  for (const int jobs : {1, 4}) {
    svc::AnalysisService warm(store_options(dir.path, jobs));
    EXPECT_EQ(warm.warm_from_disk(), 2);
    for (const std::string& name : designs) {
      const svc::AnalysisResponse response =
          warm.analyze(bench_request(name));
      ASSERT_TRUE(response.ok) << response.error;
      EXPECT_EQ(response.cache_state, "hit") << name;
      ASSERT_NE(response.canonical_json, nullptr) << name;
      EXPECT_EQ(*response.canonical_json, *cold[name].canonical_json)
          << name;
      // The store holds only the report: the wire form is re-rendered
      // from it at load, and every other rendering of the loaded report
      // matches the cold run's.
      ASSERT_NE(response.report, nullptr) << name;
      EXPECT_EQ(*response.canonical_json,
                core::to_canonical_json(*response.report))
          << name;
      const core::FlowReport& cold_report = *cold[name].report;
      EXPECT_EQ(core::to_text(*response.report), core::to_text(cold_report))
          << name;
      EXPECT_EQ(core::thesis_report_text(*response.report),
                core::thesis_report_text(cold_report))
          << name;
      EXPECT_EQ(core::to_json(stamped(*response.report, name, response)),
                core::to_json(stamped(cold_report, name, response)))
          << name;
      ASSERT_NE(response.netlist_eqn, nullptr) << name;
    }
    const svc::CacheStats stats = warm.stats();
    EXPECT_EQ(stats.disk_loads, 2);
    // The restart-survival contract: zero phase re-runs of any kind.
    EXPECT_EQ(stats.decompose_runs, 0);
    EXPECT_EQ(stats.verify_runs, 0);
    EXPECT_EQ(stats.derive_runs, 0);
    EXPECT_EQ(stats.hits, 2);
    EXPECT_EQ(stats.misses, 0);
  }
}

TEST(DiskWarmCache, VerifyModeIsAlsoServedFromALoadedEntry) {
  TempDir dir;
  {
    svc::AnalysisService cold(store_options(dir.path));
    ASSERT_TRUE(cold.analyze(bench_request("imec-ram-read-sbuf")).ok);
  }
  svc::AnalysisService warm(store_options(dir.path));
  ASSERT_EQ(warm.warm_from_disk(), 1);
  const svc::AnalysisResponse verify = warm.analyze(
      bench_request("imec-ram-read-sbuf", svc::RequestMode::verify));
  ASSERT_TRUE(verify.ok) << verify.error;
  EXPECT_EQ(verify.cache_state, "hit");
  EXPECT_TRUE(verify.speed_independent);
  EXPECT_EQ(warm.stats().decompose_runs, 0);
}

TEST(DiskWarmCache, VerifyOnlyEntriesAreNotSpilledUntilTerminal) {
  TempDir dir;
  svc::AnalysisService service(store_options(dir.path));
  // A verify-only entry of an SI design still has a derive upgrade ahead
  // of it — not terminal, not spilled.
  ASSERT_TRUE(
      service
          .analyze(bench_request("imec-ram-read-sbuf",
                                 svc::RequestMode::verify))
          .ok);
  EXPECT_EQ(service.stats().disk_writes, 0);
  // The derive upgrade makes it terminal; the upgrade's runner spills.
  ASSERT_TRUE(service.analyze(bench_request("imec-ram-read-sbuf")).ok);
  EXPECT_EQ(service.stats().disk_writes, 1);
  // A later hit does not re-spill.
  ASSERT_TRUE(service.analyze(bench_request("imec-ram-read-sbuf")).ok);
  EXPECT_EQ(service.stats().disk_writes, 1);
}

TEST(DiskWarmCache, CorruptedFilesAreRejectedDeletedAndServedCold) {
  TempDir dir;
  std::string cold_json;
  {
    svc::AnalysisService cold(store_options(dir.path));
    const svc::AnalysisResponse response =
        cold.analyze(bench_request("imec-ram-read-sbuf"));
    ASSERT_TRUE(response.ok);
    cold_json = *response.canonical_json;
  }
  svc::DiskStore probe(dir.path);
  const std::vector<std::string> files = probe.list_files();
  ASSERT_EQ(files.size(), 1u);

  // Each corruption mode in turn: bit flip, truncation, zero length.
  int mode = 0;
  for (const char* label : {"bit-flip", "truncate", "zero-length"}) {
    {
      svc::AnalysisService refill(store_options(dir.path));
      ASSERT_TRUE(refill.analyze(bench_request("imec-ram-read-sbuf")).ok);
    }
    std::string bytes = read_bytes(files[0]);
    ASSERT_FALSE(bytes.empty());
    if (mode == 0)
      bytes[bytes.size() / 2] =
          static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    else if (mode == 1)
      bytes.resize(bytes.size() / 2);
    else
      bytes.clear();
    write_bytes(files[0], bytes);
    ++mode;

    svc::AnalysisService warm(store_options(dir.path));
    EXPECT_EQ(warm.warm_from_disk(), 0) << label;
    EXPECT_EQ(warm.stats().disk_load_corrupt, 1) << label;
    EXPECT_FALSE(fs::exists(files[0])) << label;  // rejected AND deleted
    // The design runs cold and the answer is still byte-identical.
    const svc::AnalysisResponse response =
        warm.analyze(bench_request("imec-ram-read-sbuf"));
    ASSERT_TRUE(response.ok) << label << ": " << response.error;
    EXPECT_EQ(response.cache_state, "fresh") << label;
    EXPECT_EQ(*response.canonical_json, cold_json) << label;
  }
}

TEST(DiskWarmCache, StaleFormatVersionIsSkippedAndRemovedAtBoot) {
  TempDir dir;
  {
    svc::AnalysisService cold(store_options(dir.path));
    ASSERT_TRUE(cold.analyze(bench_request("imec-ram-read-sbuf")).ok);
  }
  svc::DiskStore probe(dir.path);
  const std::vector<std::string> files = probe.list_files();
  ASSERT_EQ(files.size(), 1u);
  std::string bytes = read_bytes(files[0]);
  bytes[4] = static_cast<char>(bytes[4] + 1);  // a "v2 binary's" file
  write_bytes(files[0], bytes);

  svc::AnalysisService warm(store_options(dir.path));
  EXPECT_EQ(warm.warm_from_disk(), 0);
  const svc::CacheStats stats = warm.stats();
  EXPECT_EQ(stats.disk_load_skips, 1);
  EXPECT_EQ(stats.disk_load_corrupt, 0);
  EXPECT_FALSE(fs::exists(files[0]));
  EXPECT_TRUE(warm.analyze(bench_request("imec-ram-read-sbuf")).ok);
}

TEST(DiskWarmCache, ContentAddressMismatchIsSkippedAtBoot) {
  TempDir dir;
  {
    svc::AnalysisService cold(store_options(dir.path));
    ASSERT_TRUE(cold.analyze(bench_request("imec-ram-read-sbuf")).ok);
  }
  svc::DiskStore probe(dir.path);
  const std::vector<std::string> files = probe.list_files();
  ASSERT_EQ(files.size(), 1u);
  // A well-formed file (magic, version, payload hash all valid) whose
  // canonical content no longer matches its claimed content-address —
  // e.g. a file renamed or doctored in place.
  core::PersistedArtifact artifact;
  ASSERT_EQ(core::decode_artifact(read_bytes(files[0]), artifact),
            core::ArtifactDecodeStatus::ok);
  artifact.canonical += "tampered";
  write_bytes(files[0], core::encode_artifact(artifact));

  svc::AnalysisService warm(store_options(dir.path));
  EXPECT_EQ(warm.warm_from_disk(), 0);
  EXPECT_EQ(warm.stats().disk_load_skips, 1);
  EXPECT_FALSE(fs::exists(files[0]));
}

TEST(DiskWarmCache, CrashMidWriteLeavesTheStoreServable) {
  TempDir dir;
  std::string key;
  {
    svc::AnalysisService cold(store_options(dir.path));
    const svc::AnalysisResponse response =
        cold.analyze(bench_request("imec-ram-read-sbuf"));
    ASSERT_TRUE(response.ok);
    key = response.key;
  }
  // Simulate a crash mid-write: a temp file that never reached its
  // rename, alongside the complete file of the previous generation.
  write_bytes(dir.path + "/" + key + ".tmp", "partial garbage");
  write_bytes(dir.path + "/feedfacefeedface.tmp", "unrelated partial");

  svc::AnalysisService warm(store_options(dir.path));
  EXPECT_EQ(warm.warm_from_disk(), 1);  // the durable file still loads
  EXPECT_FALSE(fs::exists(dir.path + "/" + key + ".tmp"));
  EXPECT_FALSE(fs::exists(dir.path + "/feedfacefeedface.tmp"));
  const svc::AnalysisResponse response =
      warm.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.cache_state, "hit");
}

// ---- fault injection -------------------------------------------------------

TEST(DiskWarmCacheFaults, WriteFaultDropsTheSpillButNotTheResponse) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "fault injection compiled out";
  TempDir dir;
  svc::AnalysisService service(store_options(dir.path));
  {
    svc::FaultScope fault(svc::FaultPoint::disk_store_write, /*nth=*/1);
    const svc::AnalysisResponse response =
        service.analyze(bench_request("imec-ram-read-sbuf"));
    ASSERT_TRUE(response.ok) << response.error;  // persistence best-effort
  }
  const svc::CacheStats stats = service.stats();
  EXPECT_EQ(stats.disk_writes, 0);
  EXPECT_EQ(stats.disk_write_errors, 1);
  EXPECT_TRUE(svc::DiskStore(dir.path).list_files().empty());
  // The spill is not retried (attempted once), but the entry still
  // serves from memory.
  EXPECT_TRUE(service.analyze(bench_request("imec-ram-read-sbuf")).ok);
  EXPECT_EQ(service.stats().disk_writes, 0);
}

TEST(DiskWarmCacheFaults, LoadFaultFallsBackToAColdRun) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "fault injection compiled out";
  TempDir dir;
  {
    svc::AnalysisService cold(store_options(dir.path));
    ASSERT_TRUE(cold.analyze(bench_request("imec-ram-read-sbuf")).ok);
  }
  svc::AnalysisService warm(store_options(dir.path));
  {
    svc::FaultScope fault(svc::FaultPoint::disk_store_load, /*nth=*/1);
    EXPECT_EQ(warm.warm_from_disk(), 0);
  }
  EXPECT_EQ(warm.stats().disk_load_corrupt, 1);
  const svc::AnalysisResponse response =
      warm.analyze(bench_request("imec-ram-read-sbuf"));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.cache_state, "fresh");
}

TEST(DiskWarmCacheFaults, SeededStormNeverCrashesOrSkewsAnswers) {
  if (!base::fault_injection_compiled_in())
    GTEST_SKIP() << "fault injection compiled out";
  // Fault-free reference bytes first.
  std::map<std::string, std::string> reference;
  {
    svc::AnalysisService clean;
    for (const auto& bench : benchdata::all_benchmarks()) {
      const svc::AnalysisResponse response =
          clean.analyze(bench_request(bench.name));
      ASSERT_TRUE(response.ok) << response.error;
      reference[bench.name] = *response.canonical_json;
    }
  }
  TempDir dir;
  const std::uint64_t seed = base::fault_env_seed(1);
  {
    base::FaultScope storm(seed, /*period=*/3);
    {
      svc::AnalysisService cold(store_options(dir.path));
      for (const auto& bench : benchdata::all_benchmarks()) {
        const svc::AnalysisResponse response =
            cold.analyze(bench_request(bench.name));
        if (response.ok && response.canonical_json != nullptr)
          EXPECT_EQ(*response.canonical_json, reference[bench.name])
              << "seed " << seed << " perturbed " << bench.name;
      }
    }
    // Restart under the same storm: loads may fail (disk_store_load
    // fires), spilled files may be missing (disk_store_write fired) —
    // every combination must still answer correctly.
    svc::AnalysisService warm(store_options(dir.path));
    warm.warm_from_disk();
    for (const auto& bench : benchdata::all_benchmarks()) {
      const svc::AnalysisResponse response =
          warm.analyze(bench_request(bench.name));
      if (response.ok && response.canonical_json != nullptr)
        EXPECT_EQ(*response.canonical_json, reference[bench.name])
            << "seed " << seed << " perturbed " << bench.name;
    }
  }
  // Out of scope the injector is inert: a final clean restart over the
  // (possibly partially spilled) store must be exact.
  svc::AnalysisService after(store_options(dir.path));
  after.warm_from_disk();
  for (const auto& bench : benchdata::all_benchmarks()) {
    const svc::AnalysisResponse response =
        after.analyze(bench_request(bench.name));
    ASSERT_TRUE(response.ok) << bench.name << ": " << response.error;
    EXPECT_EQ(*response.canonical_json, reference[bench.name])
        << bench.name;
  }
}

}  // namespace
}  // namespace sitime
