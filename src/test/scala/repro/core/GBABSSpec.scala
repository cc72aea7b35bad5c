package repro.core

import repro.{SparkSpec, TestData}

class GBABSSpec extends SparkSpec {

  /** Three 1D balls: [−1,1] label 0, [4,6] label 1, [9,11] label 0. */
  private val threeBalls = Vector(
    GranularBall(Array(0.0), 1.0, 0, TestData.pts1d((-1.0, 0), (0.0, 0), (1.0, 0))),
    GranularBall(Array(5.0), 1.0, 1,
      Vector(Point(Array(4.0), 1, 3), Point(Array(5.0), 1, 4), Point(Array(6.0), 1, 5))),
    GranularBall(Array(10.0), 1.0, 0,
      Vector(Point(Array(9.0), 0, 6), Point(Array(10.0), 0, 7), Point(Array(11.0), 0, 8))),
  )

  test("heterogeneous adjacent pair contributes boundary-nearest samples of both balls") {
    val (sampled, borderline) = GBABS.sampleBalls(threeBalls, p = 1)
    // pair (b0,b1): left max = x=1 (id 2), right min = x=4 (id 3)
    // pair (b1,b2): left max = x=6 (id 5), right min = x=9 (id 6)
    assert(sampled.map(_.id).toSet == Set(2L, 3L, 5L, 6L))
    assert(borderline == Set(0, 1, 2))
  }

  test("homogeneous adjacent pairs contribute nothing") {
    val balls = Vector(
      GranularBall(Array(0.0), 1.0, 0, TestData.pts1d((0.0, 0))),
      GranularBall(Array(3.0), 1.0, 0, Vector(Point(Array(3.0), 0, 1))),
      GranularBall(Array(10.0), 1.0, 1, Vector(Point(Array(10.0), 1, 2))),
    )
    val (sampled, borderline) = GBABS.sampleBalls(balls, p = 1)
    // only (ball1, ball2) is heterogeneous-adjacent
    assert(sampled.map(_.id).toSet == Set(1L, 2L))
    assert(borderline == Set(1, 2))
    assert(!borderline.contains(0), "the fully interior ball is intra-class")
  }

  test("a ball flanked by heterogeneous neighbors on both sides is borderline once, samples deduped") {
    val balls = Vector(
      GranularBall(Array(0.0), 0.5, 1, TestData.pts1d((0.0, 1))),
      GranularBall(Array(2.0), 0.5, 0, Vector(Point(Array(2.0), 0, 1))),
      GranularBall(Array(4.0), 0.5, 1, Vector(Point(Array(4.0), 1, 2))),
    )
    val (sampled, borderline) = GBABS.sampleBalls(balls, p = 1)
    assert(borderline == Set(0, 1, 2))
    // middle singleton is boundary-nearest for both pairs but appears once
    assert(sampled.map(_.id).distinct.size == sampled.size)
    assert(sampled.map(_.id).toSet == Set(0L, 1L, 2L))
  }

  test("2D: borderline detection runs per dimension independently") {
    // Along x: A(0)-B(5) heterogeneous. Along y all centers equal-ordered by
    // tie-break, still adjacent heterogeneous somewhere.
    val a = GranularBall(Array(0.0, 0.0), 1.0, 0,
      TestData.pts((Seq(-1.0, 0.0), 0), (Seq(1.0, 0.0), 0)))
    val b = GranularBall(Array(5.0, 0.0), 1.0, 1,
      Vector(Point(Array(4.0, 0.0), 1, 2), Point(Array(6.0, 0.0), 1, 3)))
    val (sampled, borderline) = GBABS.sampleBalls(Vector(a, b), p = 2)
    assert(borderline == Set(0, 1))
    // x-dim: a's max-x (id 1) and b's min-x (id 2)
    assert(sampled.map(_.id).toSet.contains(1L))
    assert(sampled.map(_.id).toSet.contains(2L))
  }

  test("single ball yields no borderline samples") {
    val (sampled, borderline) = GBABS.sampleBalls(threeBalls.take(1), p = 1)
    assert(sampled.isEmpty && borderline.isEmpty)
  }

  /** 200 columns of up to 39 values: every other one drawn from ties, ±0.0 and ±∞, the rest from [0, 5). */
  private def columns(seed: Int): Iterator[Array[Double]] = {
    val rng = new scala.util.Random(seed)
    val specials = Array(0.0, -0.0, 1.0, -1.0, Double.PositiveInfinity, Double.NegativeInfinity, Double.MinPositiveValue)
    Iterator.tabulate(200) { trial =>
      val n = rng.nextInt(40)
      Array.fill(n)(if (trial % 2 == 0) specials(rng.nextInt(specials.length)) else rng.nextInt(5) + rng.nextDouble())
    }
  }

  /** 120 columns of up to 2000 values, of four kinds in turn: heavy ties of
    * ±0.0, ±∞, subnormals and negatives; signed values over seven decades;
    * ties of ±(1 + k ulp), whose keys share all but their low bytes; and
    * values whose keys differ in one byte only, so that both the low and
    * the high passes are skipped.
    */
  private def radixColumns(seed: Int): Iterator[Array[Double]] = {
    val rng = new scala.util.Random(seed)
    val specials = Array(0.0, -0.0, 1.0, -1.0, -2.5, Double.PositiveInfinity, Double.NegativeInfinity,
      Double.MinPositiveValue, -Double.MinPositiveValue, 3 * Double.MinPositiveValue, -java.lang.Double.MIN_NORMAL / 3,
      java.lang.Double.MIN_NORMAL, Double.MaxValue, -Double.MaxValue)
    Iterator.tabulate(120) { trial =>
      val n = rng.nextInt(2001)
      val sign = if (rng.nextBoolean()) 1.0 else -1.0
      trial % 4 match {
        case 0 => Array.fill(n)(specials(rng.nextInt(specials.length)))
        case 1 => Array.fill(n)(rng.nextGaussian() * math.pow(10, rng.nextInt(7) - 3))
        case 2 => Array.fill(n)(sign * (1.0 + rng.nextInt(300) * math.ulp(1.0)))
        case _ =>
          val base = java.lang.Double.doubleToLongBits(sign * (1.0 + rng.nextDouble()))
          val shift = 8 * (1 + rng.nextInt(6))
          Array.fill(n)(java.lang.Double.longBitsToDouble(base ^ (rng.nextInt(256).toLong << shift)))
      }
    }
  }

  test("orderAlong equals the (center, index) tuple sort, including ties, -0.0 and infinities") {
    val scratch = new GBABS.RadixScratch(2000) // one for every column, as sampleBalls and TrainSet reuse theirs
    for (values <- columns(47) ++ radixColumns(61)) {
      val from = values.length % 7 // a column may start inside a larger array
      val order = GBABS.orderAlong(Array.fill(from)(Double.NaN) ++ values, from, values.length, scratch)
      assert(values.indices.map(order) == values.indices.sortBy(i => (values(i), i.toLong)))
    }
  }

  test("encode gives strictly increasing distinct values and dense order-keeping codes that restore every bit") {
    val scratch = new GBABS.RadixScratch(40)
    for (values <- columns(53)) {
      val (distinct, code) = GBABS.encode(values, scratch)
      assert(distinct.indices.drop(1).forall(d => java.lang.Double.compare(distinct(d - 1), distinct(d)) < 0))
      assert(values.indices.forall(i =>
        java.lang.Double.doubleToRawLongBits(distinct(code(i))) == java.lang.Double.doubleToRawLongBits(values(i))))
      assert(code.toSet == distinct.indices.toSet, "codes are dense")
      for (i <- values.indices; j <- values.indices)
        assert(Integer.signum(java.lang.Double.compare(values(i), values(j))) == Integer.signum(Integer.compare(code(i), code(j))))
    }
  }

  test("encode equals the sort-and-binarySearch encode on columns of up to 2000 values") {
    val scratch = new GBABS.RadixScratch(2000)
    for (values <- radixColumns(67)) {
      val (distinct, code) = GBABS.encode(values, scratch)
      val (wantDistinct, wantCode) = sortSearchEncode(values)
      assert(distinct.map(java.lang.Double.doubleToRawLongBits).toSeq == wantDistinct.map(java.lang.Double.doubleToRawLongBits).toSeq)
      assert(code.toSeq == wantCode.toSeq)
    }
  }

  /** `encode` as it was before the radix order: sort a copy, drop repeats,
    * and binary-search each value among what is left.
    */
  private def sortSearchEncode(values: Array[Double]): (Array[Double], Array[Int]) = {
    val distinct = values.clone()
    java.util.Arrays.sort(distinct)
    var m = 0; var i = 0
    while (i < distinct.length) {
      if (m == 0 || java.lang.Double.compare(distinct(m - 1), distinct(i)) != 0) { distinct(m) = distinct(i); m += 1 }
      i += 1
    }
    val code = new Array[Int](values.length)
    i = 0
    while (i < code.length) { code(i) = java.util.Arrays.binarySearch(distinct, 0, m, values(i)); i += 1 }
    (if (m == distinct.length) distinct else java.util.Arrays.copyOf(distinct, m), code)
  }

  test("sampleBalls takes what maxBy and minBy pick, with ties, -0.0 and infinities") {
    for (values <- columns(59) if values.nonEmpty) {
      val pts = values.indices.map(i => Point(Array(values(i), -values(i)), 0, i.toLong)).toVector
      val ball = GranularBall(Array(0.0, 0.0), 0.0, 0, pts)
      for (d <- 0 until 2)
        assert(GBABSSpec.extremeIds(ball, d) == ((pts.maxBy(_.features(d)).id, pts.minBy(_.features(d)).id)))
    }
  }

  /** Asserts that `sampleBalls` returns the very points and the borderline set of [[tupleSortSampleBalls]]. */
  private def assertSameSelection(balls: Vector[GranularBall], p: Int): Unit = {
    val (sampled, borderline) = GBABS.sampleBalls(balls, p)
    val (wantSampled, wantBorderline) = tupleSortSampleBalls(balls, p)
    assert(sampled.map(_.id) == wantSampled.map(_.id))
    assert(sampled.corresponds(wantSampled)(_ eq _), "the same member of a repeated id")
    assert(borderline == wantBorderline)
  }

  test("sampleBalls keeps the borderline set and sampled order of the tuple-sort version") {
    for (seed <- 0 until 6; nz <- Seq(0.0, 0.3)) {
      val clean = TestData.blobs(3, 40, dim = 3, sep = 3.0, seed = 50 + seed)
      val quantized = clean.map(pt => pt.copy(features = pt.features.map(v => math.round(v).toDouble)))
      for (data <- Seq(clean, quantized))
        assertSameSelection(RDGBG.generate(repro.data.DatasetGen.withNoise(data, nz, seed), seed = seed).balls, p = 3)
    }
  }

  test("sampleBalls takes a repeated id once, from the member taken first") {
    val twin = Point(Array(4.0), 1, 2) // holds the id of ball 0's largest member
    val balls = Vector(
      threeBalls(0),
      GranularBall(Array(5.0), 1.0, 1, Vector(twin, Point(Array(6.0), 1, 5))),
      threeBalls(2),
    )
    val (sampled, borderline) = GBABS.sampleBalls(balls, p = 1)
    assert(sampled.map(_.id) == Vector(2L, 5L, 6L))
    assert(sampled(0) eq threeBalls(0).points(2))
    assert(borderline == Set(0, 1, 2))
    assertSameSelection(balls, p = 1)
    for (seed <- 0 until 4) { // RD-GBG balls with every id shared by three samples
      val data = TestData.blobs(3, 40, dim = 3, sep = 3.0, seed = 70 + seed)
      val balls = RDGBG.generate(repro.data.DatasetGen.withNoise(data, 0.2, seed), seed = seed).balls
      assertSameSelection(balls.map(b => b.copy(points = b.points.map(pt => pt.copy(id = pt.id / 3)))), p = 3)
    }
  }

  test("sampleBalls keeps the tuple-sort selection on RD-GBG balls of S8 and S13 at 20 % noise") {
    for ((spec, p) <- Seq(7 -> 16, 12 -> 48)) {
      val data = repro.data.DatasetGen.generate(repro.data.DatasetGen.specs(spec), maxN = 1500, maxP = 48, seed = 1)
      assert(data.head.dim == p)
      assertSameSelection(RDGBG.generate(repro.data.DatasetGen.withNoise(data, 0.2, seed = 1), seed = 1).balls, p)
    }
  }

  /** `GBABS.sampleBalls` as first written, ordering each dimension with a
    * boxed (center, index) tuple sort and taking each ball's extreme
    * members with `maxBy` and `minBy`.
    */
  private def tupleSortSampleBalls(balls: Vector[GranularBall], p: Int): (Vector[Point], Set[Int]) = {
    val chosen = scala.collection.mutable.LinkedHashMap.empty[Long, Point]
    val borderline = scala.collection.mutable.Set.empty[Int]
    if (balls.size >= 2) {
      for (d <- 0 until p) {
        val order = balls.indices.sortBy(i => (balls(i).center(d), i.toLong))
        for (k <- 0 until order.length - 1) {
          val j = order(k); val j2 = order(k + 1)
          if (balls(j).label != balls(j2).label) {
            borderline += j; borderline += j2
            val left  = balls(j).points.maxBy(_.features(d))
            val right = balls(j2).points.minBy(_.features(d))
            chosen.getOrElseUpdate(left.id, left)
            chosen.getOrElseUpdate(right.id, right)
          }
        }
      }
    }
    (chosen.valuesIterator.toVector, borderline.toSet)
  }

  test("run: sampled set is a subset of the input without duplicates") {
    val data = TestData.twoBlobs(80, sep = 4.0, seed = 30)
    val res = GBABS.run(data, seed = 31)
    val ids = data.map(_.id).toSet
    assert(res.sampled.forall(p => ids.contains(p.id)))
    assert(res.sampled.map(_.id).distinct.size == res.sampled.size)
  }

  test("run: compresses well-separated data below 100%") {
    val data = TestData.twoBlobs(200, sep = 12.0, seed = 32)
    val res = GBABS.run(data, seed = 33)
    assert(res.samplingRatio < 0.9, f"expected compression, ratio=${res.samplingRatio}%.2f")
    assert(res.sampled.nonEmpty)
  }

  test("run: single-class data keeps every sample (no boundary exists)") {
    val data = TestData.pts1d((0.0, 0), (1.0, 0), (2.0, 0), (3.0, 0))
    val res = GBABS.run(data, seed = 34)
    assert(res.sampled.map(_.id).sorted == data.map(_.id).sorted)
  }

  test("run: empty input yields empty result") {
    val res = GBABS.run(Vector.empty)
    assert(res.sampled.isEmpty && res.balls.isEmpty && res.samplingRatio === 0.0)
  }

  test("run: sampling ratio accounts for the original dataset size") {
    val data = TestData.twoBlobs(100, sep = 10.0, seed = 35)
    val res = GBABS.run(data, seed = 36)
    assert(res.samplingRatio === res.sampled.size.toDouble / 100)
  }

  test("run: borderline samples concentrate near the class boundary") {
    // Two 1D strips: class 0 on [0,10], class 1 on [12,22]; boundary ~11.
    val data = TestData.pts1d(
      (0 to 10).map(i => (i.toDouble, 0)) ++ (12 to 22).map(i => (i.toDouble, 1)): _*)
    val res = GBABS.run(data, rho = 3, seed = 37)
    assert(res.sampled.nonEmpty)
    val meanBoundaryDist = res.sampled.map(p => math.abs(p.features(0) - 11.0)).sum / res.sampled.size
    val meanAllDist = data.map(p => math.abs(p.features(0) - 11.0)).sum / data.size
    assert(meanBoundaryDist <= meanAllDist,
      f"sampled mean distance to boundary $meanBoundaryDist%.2f should not exceed dataset mean $meanAllDist%.2f")
  }

  test("run: GBABS compresses noisy data at least as well as GGBS (Fig 6 behaviour)") {
    val clean = TestData.twoBlobs(200, sep = 8.0, seed = 38)
    val noisy = repro.data.DatasetGen.withNoise(clean, 0.3, seed = 39)
    val rNoisy = GBABS.run(noisy, seed = 40)
    val ggbsRatio = repro.gbs.GGBS.sample(noisy, 1.0, seed = 40).size.toDouble / noisy.size
    assert(rNoisy.samplingRatio < 1.0)
    assert(rNoisy.samplingRatio <= ggbsRatio + 0.05,
      f"GBABS ${rNoisy.samplingRatio}%.2f should not exceed GGBS $ggbsRatio%.2f on noisy data")
  }

  test("run: determinism in the seed") {
    val data = TestData.blobs(3, 30, seed = 41)
    val a = GBABS.run(data, seed = 42)
    val b = GBABS.run(data, seed = 42)
    assert(a.sampled.map(_.id) == b.sampled.map(_.id))
  }

  test("run: every borderline index refers to an existing ball") {
    val data = TestData.twoBlobs(60, sep = 5.0, seed = 43)
    val res = GBABS.run(data, seed = 44)
    assert(res.borderlineIdx.forall(i => i >= 0 && i < res.balls.size))
  }

  test("run: multi-class data samples from every boundary region") {
    val data = TestData.blobs(3, 40, sep = 9.0, seed = 45)
    val res = GBABS.run(data, seed = 46)
    // every class should contribute at least one borderline sample
    assert(res.sampled.map(_.label).distinct.sorted == Vector(0, 1, 2))
  }
}

object GBABSSpec {

  /** The ids of `ball`'s largest and smallest member along `d`, as
    * `GBABS.sampleBalls` takes them. The members, projected on `d`, form a
    * ball between two one-member balls of another label: the left pair
    * takes its smallest member and the right pair its largest.
    */
  def extremeIds(ball: GranularBall, d: Int): (Long, Long) = {
    def flank(center: Double, id: Long) = GranularBall(Array(center), 0.0, 1, Vector(Point(Array(0.0), 1, id)))
    val projected = GranularBall(Array(0.0), 0.0, 0, ball.points.map(pt => Point(Array(pt.features(d)), 0, pt.id)))
    val balls = Vector(flank(Double.NegativeInfinity, Long.MinValue), projected, flank(Double.PositiveInfinity, Long.MaxValue))
    val taken = GBABS.sampleBalls(balls, p = 1)._1.map(_.id).filter(id => id != Long.MinValue && id != Long.MaxValue)
    (taken.last, taken.head) // one id when the same member is both
  }
}
