package repro.core

import repro.{SparkSpec, TestData}

class RDGBGSpec extends SparkSpec {

  /** Invariants every RD-GBG result must satisfy (the paper's three
    * granulation criteria + the no-overlap and purity guarantees).
    */
  private def checkInvariants(data: Vector[Point], res: RDGBGResult): Unit = {
    // purity 1.0: every ball is single-class and carries its own label
    res.balls.foreach { b =>
      assert(b.points.nonEmpty, "ball without samples")
      assert(b.purity === 1.0, s"impure ball: $b")
      assert(b.points.forall(_.label == b.label))
    }
    // geometry: every sample inside its ball
    res.balls.foreach(b => assert(b.covers(), s"ball does not cover its samples: $b"))
    // no overlap between any two balls
    for (i <- res.balls.indices; j <- i + 1 until res.balls.size)
      assert(!res.balls(i).overlaps(res.balls(j)),
        s"overlap between balls $i and $j")
    // completeness: balls + noise partition the dataset exactly
    val inBalls = res.balls.flatMap(_.points.map(_.id))
    assert(inBalls.distinct.size == inBalls.size, "a sample appears in two balls")
    val all = (inBalls ++ res.noise.map(_.id)).sorted
    assert(all == data.map(_.id).sorted, "balls + noise must partition the dataset")
  }

  test("two separated 1D clusters granulate into pure non-overlapping balls") {
    val data = TestData.pts1d(
      (0.0, 0), (1.0, 0), (2.0, 0), (3.0, 0),
      (10.0, 1), (11.0, 1), (12.0, 1), (13.0, 1))
    val res = RDGBG.generate(data, rho = 3, seed = 1)
    checkInvariants(data, res)
    assert(res.noise.isEmpty)
    assert(res.balls.map(_.label).distinct.sorted == Vector(0, 1))
  }

  test("clean separated clusters produce few non-orphan balls") {
    val data = TestData.twoBlobs(60, sep = 12.0)
    val res = RDGBG.generate(data, seed = 2)
    checkInvariants(data, res)
    val big = res.balls.filter(_.size > 1)
    assert(big.nonEmpty)
    assert(big.map(_.size).sum > data.size / 2, "most samples should be in real balls")
  }

  test("an isolated heterogeneous point surrounded by the other class is removed as noise") {
    // Single class-1 point inside a class-0 cluster; its group has size 1 so
    // it must eventually be selected as a candidate and fail Eq.2 with h=rho.
    val data = TestData.pts1d(
      (0.0, 0), (1.0, 0), (2.0, 0), (3.0, 0), (4.0, 0), (5.0, 0), (2.1, 1))
    val res = RDGBG.generate(data, rho = 5, seed = 3)
    checkInvariants(data, res)
    assert(res.noise.map(_.id) == Vector(6L), "the planted class-1 noise point must be removed")
  }

  test("h == 1: the heterogeneous nearest neighbor is removed as noise and the center is kept") {
    // Class-0 center at 0 whose nearest neighbor (0.1) is class 1, but the
    // remaining rho-neighborhood is class 0 => the neighbor is the noise.
    val data = TestData.pts1d(
      (0.0, 0), (1.0, 0), (2.0, 0), (3.0, 0), (4.0, 0), (0.1, 1),
      (50.0, 1), (51.0, 1), (52.0, 1), (53.0, 1), (54.0, 1))
    val res = RDGBG.generate(data, rho = 5, seed = 4)
    checkInvariants(data, res)
    assert(res.noise.map(_.id).contains(5L), "the planted nearest-neighbor noise must be removed")
  }

  test("balls never absorb heterogeneous samples even at the boundary") {
    val data = TestData.pts1d(
      (0.0, 0), (0.5, 0), (1.0, 0), (1.5, 1), (2.0, 1), (2.5, 1))
    val res = RDGBG.generate(data, rho = 2, seed = 5)
    checkInvariants(data, res)
  }

  test("single-class dataset granulates into one or more homogeneous balls with no noise") {
    val data = TestData.pts1d((0.0, 0), (1.0, 0), (2.0, 0), (3.0, 0), (4.0, 0))
    val res = RDGBG.generate(data, rho = 3, seed = 6)
    checkInvariants(data, res)
    assert(res.noise.isEmpty)
    assert(res.balls.forall(_.label == 0))
    assert(res.covered == 5)
  }

  test("singleton dataset becomes one orphan ball") {
    val data = TestData.pts1d((1.0, 0))
    val res = RDGBG.generate(data, rho = 3, seed = 7)
    assert(res.balls.size == 1)
    assert(res.balls.head.isOrphan)
    assert(res.noise.isEmpty)
  }

  test("empty dataset yields no balls") {
    val res = RDGBG.generate(Vector.empty, rho = 3, seed = 8)
    assert(res.balls.isEmpty && res.noise.isEmpty)
  }

  test("rho below 2 is rejected") {
    intercept[IllegalArgumentException] { RDGBG.generate(TestData.pts1d((0.0, 0)), rho = 1) }
  }

  test("duplicate ids are rejected, naming the id") {
    val data = TestData.pts1d((0.0, 0), (1.0, 1), (2.0, 0)) :+ Point(Array(3.0), 1, 1L)
    val e = intercept[IllegalArgumentException] { RDGBG.generate(data) }
    assert(e.getMessage.contains("duplicate sample id 1"))
  }

  test("ragged feature arrays are rejected, naming the first offending id") {
    val data = TestData.pts((Seq(0.0, 0.0), 0), (Seq(1.0, 1.0), 1), (Seq(2.0), 0), (Seq(3.0), 1))
    val e = intercept[IllegalArgumentException] { RDGBG.generate(data) }
    assert(e.getMessage.contains("sample id 2 "))
    assert(e.getMessage.contains("ragged"))
  }

  test("NaN and infinite feature values are rejected, naming the first offending id") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val data = TestData.pts((Seq(0.0, 0.0), 0), (Seq(1.0, 1.0), 1), (Seq(2.0, bad), 0), (Seq(bad, 3.0), 1))
      val e = intercept[IllegalArgumentException] { RDGBG.generate(data) }
      assert(e.getMessage.contains("sample id 2 "), s"value $bad")
      assert(e.getMessage.contains("NaN or infinite"), s"value $bad")
    }
  }

  test("determinism: same seed, same result") {
    val data = TestData.blobs(3, 30)
    val a = RDGBG.generate(data, seed = 9)
    val b = RDGBG.generate(data, seed = 9)
    assert(a.balls.map(_.points.map(_.id)) == b.balls.map(_.points.map(_.id)))
    assert(a.noise.map(_.id) == b.noise.map(_.id))
  }

  test("generate from 4 threads at once, as concurrent Spark tasks call it, equals a lone call") {
    // 600 samples are 10 blocks of the list build; 670 are 11, an odd
    // count, so each round gives one block a bye.
    val sets = Seq(TestData.blobs(3, 200, dim = 4, seed = 23), TestData.blobs(2, 335, dim = 4, seed = 26))
    val key = (res: RDGBGResult) => (res.balls.map(RDGBGDiffSpec.ballKey), res.noise.map(_.id))
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      for (clean <- sets) {
        val data = repro.data.DatasetGen.withNoise(clean, 0.2, seed = 24)
        val lone = key(RDGBG.generate(data, seed = 25))
        val runs = Vector.fill(4)(pool.submit(() => RDGBG.generate(data, seed = 25)))
        runs.foreach(run => assert(key(run.get) == lone))
      }
    } finally pool.shutdown()
  }

  test("different seeds still satisfy all invariants") {
    val data = TestData.blobs(3, 25, seed = 10)
    for (seed <- 0 until 5)
      checkInvariants(data, RDGBG.generate(data, seed = seed))
  }

  test("property: invariants hold across random datasets and rho values") {
    for (seed <- 0 until 8; rho <- Seq(3, 5, 9)) {
      val data = TestData.twoBlobs(40 + seed * 7, dim = 3, sep = 3.0, seed = seed)
      checkInvariants(data, RDGBG.generate(data, rho = rho, seed = seed))
    }
  }

  test("property: invariants hold on overlapping (hard) class distributions") {
    for (seed <- 0 until 5) {
      val data = TestData.twoBlobs(60, dim = 2, sep = 0.5, seed = 100 + seed)
      val res = RDGBG.generate(data, seed = seed)
      checkInvariants(data, res)
    }
  }

  // Class 0 is (-5, 0) and (5, 0). Whichever is drawn, it goes first (a tie
  // with class 1 keeps label order) and builds a ball of radius 10 around
  // itself. Class 1's c = (0, 12) is then 13 from that center, so its
  // conflict radius (Eq.4) is exactly 3. The other class-1 sample is closer
  // to class 0's ball than 3, so its own attempt ends with r = 0.
  private def conflictCase(belowC: Double): Vector[Point] =
    TestData.pts((Seq(-5.0, 0.0), 0), (Seq(5.0, 0.0), 0), (Seq(0.0, belowC), 1), (Seq(0.0, 12.0), 1))

  test("a homogeneous sample exactly at the conflict radius joins the ball, one beyond it does not") {
    val at = conflictCase(9.0) // 3 below c: Eq.6 keeps d <= rConf
    val beyond = conflictCase(8.99)
    for (seed <- 0 until 50) {
      val res = RDGBG.generate(at, rho = 3, seed = seed)
      checkInvariants(at, res)
      val ball = res.balls.find(_.label == 1).get
      assert(res.balls.size == 2 && res.noise.isEmpty, s"seed $seed")
      assert(ball.center.toSeq == Seq(0.0, 12.0) && ball.radius == 3.0, s"seed $seed")
      assert(ball.points.map(_.id).sorted == Vector(2L, 3L), s"seed $seed")

      val res2 = RDGBG.generate(beyond, rho = 3, seed = seed)
      checkInvariants(beyond, res2)
      assert(res2.balls.filter(_.label == 1).forall(_.isOrphan), s"seed $seed")
      assert(res2.balls.size == 3 && res2.noise.isEmpty, s"seed $seed")
    }
  }

  test("a sample marked low-density is later absorbed into another ball") {
    // Class 0 (c = -1, a = 0) ties with class 1, so it draws first, and a
    // seed whose first rng.nextInt(2) is 1 offers a. a sees two of its three
    // nearest as class 1 (Eq.2: neither noise nor a center) and is marked
    // low-density; c's ball takes it in later. Drawn first, c takes a at once.
    val data = TestData.pts1d((-1.0, 0), (0.0, 0), (0.5, 1), (0.6, 1))
    val seeds = 0 until 50
    assert(seeds.exists(s => new scala.util.Random(s).nextInt(2) == 1), "no seed draws a first")
    for (seed <- seeds) {
      val res = RDGBG.generate(data, rho = 3, seed = seed)
      checkInvariants(data, res)
      assert(res.noise.isEmpty && res.balls.size == 2, s"seed $seed")
      val ball = res.balls.find(_.label == 0).get
      assert(ball.center.toSeq == Seq(-1.0) && ball.radius == 1.0, s"seed $seed")
      assert(ball.points.map(_.id).sorted == Vector(0L, 1L), s"seed $seed")
    }
  }

  test("when T empties while U is not empty, the rest become orphans") {
    // Alternating classes: every candidate has 2 heterogeneous samples among
    // its 3 nearest, so each is marked low-density and no ball is built.
    val data = TestData.pts1d((0.0, 0), (1.0, 1), (2.0, 0), (3.0, 1))
    for (seed <- 0 until 50) {
      val res = RDGBG.generate(data, rho = 3, seed = seed)
      checkInvariants(data, res)
      assert(res.noise.isEmpty, s"seed $seed")
      assert(res.balls.size == 4 && res.balls.forall(_.isOrphan), s"seed $seed")
    }
  }

  test("noisy datasets shed noise: more label noise, more removals") {
    val clean = TestData.twoBlobs(120, sep = 10.0, seed = 11)
    val noisy = repro.data.DatasetGen.withNoise(clean, 0.2, seed = 12)
    val resClean = RDGBG.generate(clean, seed = 13)
    val resNoisy = RDGBG.generate(noisy, seed = 13)
    assert(resNoisy.noise.size > resClean.noise.size)
  }

  test("noise removal targets flipped labels preferentially") {
    val clean = TestData.twoBlobs(150, sep = 12.0, seed = 14)
    val noisy = repro.data.DatasetGen.withNoise(clean, 0.15, seed = 15)
    val flippedIds = clean.zip(noisy).collect { case (a, b) if a.label != b.label => a.id }.toSet
    val res = RDGBG.generate(noisy, seed = 16)
    if (res.noise.nonEmpty) {
      val hitRate = res.noise.count(p => flippedIds.contains(p.id)).toDouble / res.noise.size
      assert(hitRate > 0.5, f"noise detection should mostly remove flipped labels, hit rate $hitRate%.2f")
    }
  }

  test("larger balls dominate when classes are well separated") {
    val data = TestData.twoBlobs(100, sep = 20.0, seed = 17)
    val res = RDGBG.generate(data, seed = 18)
    val ballCount = res.balls.count(_.size > 1)
    assert(ballCount < data.size / 4, s"expected few large balls, got $ballCount")
  }

  test("multi-class granulation keeps one label per ball") {
    val data = TestData.blobs(4, 25, sep = 10.0, seed = 19)
    val res = RDGBG.generate(data, seed = 20)
    checkInvariants(data, res)
    assert(res.balls.map(_.label).distinct.sorted == Vector(0, 1, 2, 3))
  }

  test("covered + noise equals dataset size") {
    val data = TestData.blobs(3, 40, seed = 21)
    val res = RDGBG.generate(data, seed = 22)
    assert(res.covered + res.noise.size == data.size)
  }
}
