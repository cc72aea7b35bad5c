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

  test("an unknown flag is rejected by name") {
    val e = intercept[IllegalArgumentException](JobContext.config(Array("--maxn", "100")))
    assert(e.getMessage.contains("--maxn"))
  }

  test("a flag without a value is rejected by name") {
    val e = intercept[IllegalArgumentException](JobContext.config(Array("--folds", "3", "--maxN")))
    assert(e.getMessage.contains("--maxN"))
  }
}
