package repro.jobs

import repro.SparkSpec
import repro.exp.BenchConfig

class JobContextSpec extends SparkSpec {

  test("no arguments give BenchConfig's defaults") {
    assert(JobContext.config(Array.empty) == BenchConfig())
  }

  test("--maxN changes only maxN") {
    assert(JobContext.config(Array("--maxN", "100")) == BenchConfig().copy(maxN = 100))
  }
}
