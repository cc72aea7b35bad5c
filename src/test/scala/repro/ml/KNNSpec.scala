package repro.ml

import repro.{SparkSpec, TestData}

class KNNSpec extends SparkSpec {

  test("k=1 memorizes the training set") {
    val data = TestData.twoBlobs(40, sep = 8.0, seed = 1)
    val m = KNN(1).fit(data, seed = 0)
    assert(data.forall(p => m.predict(p.features) == p.label))
  }

  test("separable clusters are classified correctly") {
    val train = TestData.twoBlobs(60, sep = 10.0, seed = 2)
    val test = TestData.twoBlobs(40, sep = 10.0, seed = 3)
    val m = KNN(5).fit(train, seed = 0)
    val acc = Metrics.accuracy(m.predictAll(test), test.map(_.label))
    assert(acc > 0.95, f"expected near-perfect accuracy, got $acc%.3f")
  }

  test("majority vote wins in mixed neighborhoods") {
    val train = TestData.pts1d((0.0, 0), (0.1, 0), (0.2, 0), (0.3, 1), (0.4, 1))
    val m = KNN(5).fit(train, seed = 0)
    assert(m.predict(Array(0.15)) == 0)
  }

  test("k larger than the training set is capped") {
    val train = TestData.pts1d((0.0, 0), (1.0, 1))
    val m = KNN(99).fit(train, seed = 0)
    assert(Set(0, 1).contains(m.predict(Array(0.4))))
  }

  test("single-class training predicts that class everywhere") {
    val train = TestData.pts1d((0.0, 3), (1.0, 3), (2.0, 3))
    val m = KNN(5).fit(train, seed = 0)
    assert(m.predict(Array(100.0)) == 3)
  }

  test("empty training is rejected") {
    intercept[IllegalArgumentException] { KNN(5).fit(Vector.empty, 0) }
  }

  test("multi-class prediction hits all classes on their blobs") {
    val train = TestData.blobs(3, 30, sep = 12.0, seed = 4)
    val test = TestData.blobs(3, 10, sep = 12.0, seed = 5)
    val m = KNN(5).fit(train, seed = 0)
    val acc = Metrics.accuracy(m.predictAll(test), test.map(_.label))
    assert(acc > 0.9)
  }

  test("learner name is kNN") {
    assert(KNN().name == "kNN")
  }

  test("ragged feature arrays are rejected, naming the first offending id") {
    val e = intercept[IllegalArgumentException] { KNN(1).fit(TestData.ragged, 0) }
    assert(e.getMessage.contains("sample id 2 ") && e.getMessage.contains("ragged"))
  }

  test("NaN and infinite feature values are rejected, naming the first offending id") {
    for (bad <- TestData.nonFinite) {
      val e = intercept[IllegalArgumentException] { KNN(1).fit(TestData.holding(bad), 0) }
      assert(e.getMessage.contains("sample id 2 ") && e.getMessage.contains("NaN or infinite"), s"value $bad")
    }
  }
}
