package repro.ml

import repro.{SparkSpec, TestData}

class DecisionTreeSpec extends SparkSpec {

  test("fits XOR exactly") {
    val data = TestData.pts(
      (Seq(0.0, 0.0), 0), (Seq(1.0, 1.0), 0), (Seq(0.0, 1.0), 1), (Seq(1.0, 0.0), 1))
    val m = DecisionTree().fit(data, seed = 0)
    assert(data.forall(p => m.predict(p.features) == p.label))
  }

  test("training accuracy is 1.0 on consistent data") {
    val data = TestData.twoBlobs(80, sep = 3.0, seed = 1)
    val m = DecisionTree().fit(data, seed = 0)
    assert(Metrics.accuracy(m.predictAll(data), data.map(_.label)) === 1.0)
  }

  test("generalizes on separable clusters") {
    val train = TestData.twoBlobs(100, sep = 8.0, seed = 2)
    val test = TestData.twoBlobs(60, sep = 8.0, seed = 3)
    val m = DecisionTree().fit(train, seed = 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.9)
  }

  test("TreeNode.partition splits a sub-range in place and stably, leaving the rest") {
    val rows = Array(9, 4, 7, 2, 8, 3, 6, 1, 5, 0)
    val scratch = new Array[Int](rows.length)
    assert(TreeNode.partition(rows, 2, 8, scratch, _ % 2 == 0) == 5)
    assert(rows.toSeq == Seq(9, 4, 2, 8, 6, 7, 3, 1, 5, 0))
    assert(TreeNode.partition(rows, 0, 4, scratch, _ => false) == 0)
    assert(rows.toSeq == Seq(9, 4, 2, 8, 6, 7, 3, 1, 5, 0))
  }

  test("maxDepth 0 yields the majority-class stump") {
    val data = TestData.pts1d((0.0, 0), (1.0, 0), (2.0, 1))
    val m = DecisionTree(maxDepth = 0).fit(data, seed = 0)
    assert(m.predict(Array(2.0)) == 0)
  }

  test("deeper trees are at least as large") {
    val data = TestData.twoBlobs(120, sep = 1.0, seed = 4)
    val shallow = DecisionTree(maxDepth = 2).fit(data, 0).asInstanceOf[TreeModel]
    val deep = DecisionTree(maxDepth = 10).fit(data, 0).asInstanceOf[TreeModel]
    assert(deep.size >= shallow.size)
  }

  test("single-class input gives a single leaf") {
    val data = TestData.pts1d((0.0, 2), (1.0, 2), (2.0, 2))
    val m = DecisionTree().fit(data, 0).asInstanceOf[TreeModel]
    assert(m.size == 1)
    assert(m.predict(Array(5.0)) == 2)
  }

  test("constant features give a leaf (no fake splits)") {
    val data = Vector.tabulate(10)(i => repro.core.Point(Array(3.0, 3.0), i % 2, i.toLong))
    val m = DecisionTree().fit(data, 0).asInstanceOf[TreeModel]
    assert(m.size == 1)
  }

  test("threshold lies between adjacent distinct values") {
    val data = TestData.pts1d((0.0, 0), (1.0, 0), (2.0, 1), (3.0, 1))
    val m = DecisionTree().fit(data, 0).asInstanceOf[TreeModel]
    m.root match {
      case Split(0, thr, _, _) => assert(thr === 1.5)
      case other               => fail(s"expected a split, got $other")
    }
  }

  test("multi-class trees classify three blobs") {
    val train = TestData.blobs(3, 40, sep = 10.0, seed = 5)
    val test = TestData.blobs(3, 15, sep = 10.0, seed = 6)
    val m = DecisionTree().fit(train, 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.9)
  }

  test("determinism without feature subsampling") {
    val data = TestData.twoBlobs(60, sep = 2.0, seed = 7)
    val a = DecisionTree().fit(data, 1).predictAll(data)
    val b = DecisionTree().fit(data, 2).predictAll(data)
    assert(a == b, "full-feature CART must not depend on the seed")
  }

  test("feature subsampling still produces a working tree") {
    val data = TestData.twoBlobs(80, dim = 5, sep = 8.0, seed = 8)
    val m = DecisionTree(featuresPerSplit = 2).fit(data, seed = 9)
    assert(Metrics.accuracy(m.predictAll(data), data.map(_.label)) > 0.8)
  }

  test("a feature that separates the classes only by the sign of zero is never split on") {
    // -0.0 and 0.0 are equal under IEEE comparison, though Double.compare orders them.
    val data = TestData.pts(
      (Seq(-0.0, 0.0), 0), (Seq(-0.0, 1.0), 0), (Seq(-0.0, 2.0), 0),
      (Seq(0.0, 1.0), 1), (Seq(0.0, 2.0), 1), (Seq(0.0, 3.0), 1))
    def features(n: TreeNode): Set[Int] = n match {
      case Leaf(_)           => Set.empty
      case Split(f, _, l, r) => features(l) ++ features(r) + f
    }
    val root = DecisionTree().fit(data, 0).asInstanceOf[TreeModel].root
    assert(root.isInstanceOf[Split], s"expected a split on feature 1, got $root")
    assert(features(root) == Set(1))
  }

  test("empty training is rejected") {
    intercept[IllegalArgumentException] { DecisionTree().fit(Vector.empty, 0) }
  }

  test("labels do not need to be contiguous") {
    val data = TestData.pts1d((0.0, 10), (1.0, 10), (5.0, 42), (6.0, 42))
    val m = DecisionTree().fit(data, 0)
    assert(m.predict(Array(0.5)) == 10)
    assert(m.predict(Array(5.5)) == 42)
  }

  test("ragged feature arrays are rejected, naming the first offending id") {
    val e = intercept[IllegalArgumentException] { DecisionTree().fit(TestData.ragged, 0) }
    assert(e.getMessage.contains("sample id 2 ") && e.getMessage.contains("ragged"))
  }

  test("NaN and infinite feature values are rejected, naming the first offending id") {
    for (bad <- TestData.nonFinite) {
      val e = intercept[IllegalArgumentException] { DecisionTree().fit(TestData.holding(bad), 0) }
      assert(e.getMessage.contains("sample id 2 ") && e.getMessage.contains("NaN or infinite"), s"value $bad")
    }
  }
}
