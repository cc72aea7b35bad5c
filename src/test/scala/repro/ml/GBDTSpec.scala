package repro.ml

import repro.{SparkSpec, TestData}

class GBDTSpec extends SparkSpec {

  test("XGBoost-like preset classifies separable clusters") {
    val train = TestData.twoBlobs(100, sep = 8.0, seed = 1)
    val test = TestData.twoBlobs(60, sep = 8.0, seed = 2)
    val m = GBDT.xgboostLike(10).fit(train, seed = 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.93)
  }

  test("LightGBM-like preset classifies separable clusters") {
    val train = TestData.twoBlobs(100, sep = 8.0, seed = 3)
    val test = TestData.twoBlobs(60, sep = 8.0, seed = 4)
    val m = GBDT.lightgbmLike(10).fit(train, seed = 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.93)
  }

  test("single-class training yields a constant model") {
    val data = TestData.pts1d((0.0, 4), (1.0, 4))
    val m = GBDT.xgboostLike(5).fit(data, 0)
    assert(m.isInstanceOf[ConstantModel])
    assert(m.predict(Array(99.0)) == 4)
  }

  test("multi-class softmax boosting classifies three blobs") {
    val train = TestData.blobs(3, 50, sep = 10.0, seed = 5)
    val test = TestData.blobs(3, 20, sep = 10.0, seed = 6)
    val m = GBDT.lightgbmLike(10).fit(train, seed = 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.9)
  }

  test("more rounds do not hurt training fit") {
    val data = TestData.twoBlobs(120, sep = 2.0, seed = 7)
    val short = GBDT.xgboostLike(2).fit(data, 0)
    val long = GBDT.xgboostLike(20).fit(data, 0)
    val accShort = Metrics.accuracy(short.predictAll(data), data.map(_.label))
    val accLong = Metrics.accuracy(long.predictAll(data), data.map(_.label))
    assert(accLong >= accShort - 1e-9)
  }

  test("predictions are always in the training label set") {
    val train = TestData.pts1d((0.0, 7), (1.0, 7), (5.0, 9), (6.0, 9))
    val m = GBDT.lightgbmLike(5).fit(train, 0)
    for (x <- Seq(-10.0, 0.5, 3.0, 5.5, 50.0))
      assert(Set(7, 9).contains(m.predict(Array(x))))
  }

  test("constant features give a usable (prior) model") {
    val data = Vector.tabulate(12)(i => repro.core.Point(Array(2.0), i % 2, i.toLong))
    val m = GBDT.xgboostLike(3).fit(data, 0)
    assert(Set(0, 1).contains(m.predict(Array(2.0))))
  }

  test("deterministic (no RNG in the algorithm)") {
    val train = TestData.twoBlobs(80, sep = 3.0, seed = 8)
    val test = TestData.twoBlobs(40, sep = 3.0, seed = 9)
    val a = GBDT.lightgbmLike(6).fit(train, 1).predictAll(test)
    val b = GBDT.lightgbmLike(6).fit(train, 2).predictAll(test)
    assert(a == b)
  }

  test("leaf-wise trees respect the leaf budget indirectly (no runaway)") {
    val data = TestData.twoBlobs(200, sep = 0.5, seed = 10)
    def trees(g: GBDT) = g.fit(data, 0).asInstanceOf[GBDTModel].trees.flatten
    def leaves(n: TreeNode): Int = n match {
      case Leaf(_)           => 1
      case Split(_, _, l, r) => leaves(l) + leaves(r)
    }
    def depth(n: TreeNode): Int = n match {
      case Leaf(_)           => 0
      case Split(_, _, l, r) => 1 + math.max(depth(l), depth(r))
    }
    val tiny = GBDT(name = "tiny", rounds = 3, maxDepth = Int.MaxValue, maxLeaves = 2)
    assert(tiny.fit(data, 0).predictAll(data).toSet.subsetOf(Set(0, 1)))
    // Each cap binds: the largest tree reaches it and no tree passes it.
    assert(trees(tiny).map(leaves).max == 2)
    assert(trees(tiny.copy(maxDepth = 2, maxLeaves = Int.MaxValue)).map(depth).max == 2)
    assert(trees(GBDT.xgboostLike(5)).map(depth).max <= 5)
    assert(trees(GBDT.lightgbmLike(5)).map(leaves).max <= 15)
  }

  test("empty training is rejected") {
    intercept[IllegalArgumentException] { GBDT.xgboostLike(3).fit(Vector.empty, 0) }
  }

  test("preset names match the paper's classifiers") {
    assert(GBDT.xgboostLike().name == "XGBoost")
    assert(GBDT.lightgbmLike().name == "LightGBM")
  }

  test("noisy labels reduce but do not destroy accuracy") {
    val clean = TestData.twoBlobs(200, sep = 6.0, seed = 11)
    val noisy = repro.data.DatasetGen.withNoise(clean, 0.2, seed = 12)
    val test = TestData.twoBlobs(100, sep = 6.0, seed = 13)
    val m = GBDT.xgboostLike(10).fit(noisy, 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.8)
  }

  test("ragged feature arrays are rejected, naming the first offending id") {
    val e = intercept[IllegalArgumentException] { GBDT.xgboostLike(3).fit(TestData.ragged, 0) }
    assert(e.getMessage.contains("sample id 2 ") && e.getMessage.contains("ragged"))
  }

  test("NaN and infinite feature values are rejected, naming the first offending id") {
    for (bad <- TestData.nonFinite) {
      val e = intercept[IllegalArgumentException] { GBDT.xgboostLike(3).fit(TestData.holding(bad), 0) }
      assert(e.getMessage.contains("sample id 2 ") && e.getMessage.contains("NaN or infinite"), s"value $bad")
    }
  }
}
