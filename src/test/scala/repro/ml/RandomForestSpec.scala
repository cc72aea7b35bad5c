package repro.ml

import repro.{SparkSpec, TestData}

class RandomForestSpec extends SparkSpec {

  test("classifies separable clusters") {
    val train = TestData.twoBlobs(100, sep = 8.0, seed = 1)
    val test = TestData.twoBlobs(60, sep = 8.0, seed = 2)
    val m = RandomForest(nTrees = 15).fit(train, seed = 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.93)
  }

  test("builds the requested number of trees") {
    val data = TestData.twoBlobs(40, sep = 4.0, seed = 3)
    val m = RandomForest(nTrees = 7).fit(data, 0).asInstanceOf[ForestModel]
    assert(m.trees.size == 7)
  }

  test("single-class training predicts that class") {
    val data = TestData.pts1d((0.0, 5), (1.0, 5), (2.0, 5), (3.0, 5))
    val m = RandomForest(nTrees = 5).fit(data, 0)
    assert(m.predict(Array(10.0)) == 5)
  }

  test("deterministic for a fixed seed") {
    val data = TestData.twoBlobs(60, sep = 2.0, seed = 4)
    val test = TestData.twoBlobs(30, sep = 2.0, seed = 5)
    val a = RandomForest(nTrees = 9).fit(data, 7).predictAll(test)
    val b = RandomForest(nTrees = 9).fit(data, 7).predictAll(test)
    assert(a == b)
  }

  test("ensemble beats a depth-limited single tree on noisy data") {
    val clean = TestData.twoBlobs(200, sep = 4.0, seed = 6)
    val noisy = repro.data.DatasetGen.withNoise(clean, 0.25, seed = 7)
    val test = TestData.twoBlobs(100, sep = 4.0, seed = 8)
    val rf = RandomForest(nTrees = 21).fit(noisy, 9)
    val dt = DecisionTree().fit(noisy, 9)
    val rfAcc = Metrics.accuracy(rf.predictAll(test), test.map(_.label))
    val dtAcc = Metrics.accuracy(dt.predictAll(test), test.map(_.label))
    assert(rfAcc >= dtAcc - 0.02, f"RF $rfAcc%.3f should not lose clearly to DT $dtAcc%.3f")
  }

  test("multi-class forests work") {
    val train = TestData.blobs(3, 50, sep = 10.0, seed = 10)
    val test = TestData.blobs(3, 20, sep = 10.0, seed = 11)
    val m = RandomForest(nTrees = 11).fit(train, 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.9)
  }

  test("empty training is rejected") {
    intercept[IllegalArgumentException] { RandomForest().fit(Vector.empty, 0) }
  }

  test("learner name is RF") {
    assert(RandomForest().name == "RF")
  }

  test("ragged feature arrays are rejected, naming the first offending id") {
    val e = intercept[IllegalArgumentException] { RandomForest(nTrees = 3).fit(TestData.ragged, 0) }
    assert(e.getMessage.contains("sample id 2 ") && e.getMessage.contains("ragged"))
  }

  test("NaN and infinite feature values are rejected, naming the first offending id") {
    for (bad <- TestData.nonFinite) {
      val e = intercept[IllegalArgumentException] { RandomForest(nTrees = 3).fit(TestData.holding(bad), 0) }
      assert(e.getMessage.contains("sample id 2 ") && e.getMessage.contains("NaN or infinite"), s"value $bad")
    }
  }
}
