package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.data.DatasetGen

/** Differential gate: `RDGBG.generate` must return exactly what the original
  * implementation (`RDGBGReference`) returns — the same balls in the same
  * order with the same centers, radii, labels and member order, and the
  * same noise in the same order. Every case also checks the ball
  * invariants: purity 1.0, coverage, no overlap, and balls ∪ noise = D with
  * no id twice.
  */
class RDGBGDiffSpec extends SparkSpec {
  import RDGBGDiffSpec._

  private def check(name: String, prop: Prop, tests: Int): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(20250417L), prop)
    assert(res.passed, s"$name: ${Pretty.pretty(res)}")
  }

  test("property: identical to the reference on quantized, tie-heavy data") {
    check("quantized", Prop.forAllNoShrink(cases(quantized)) { case (data, rho, seed) => sameAndValid(data, rho, seed) }, 300)
  }

  test("property: identical to the reference in one dimension") {
    check("p = 1", Prop.forAllNoShrink(cases(quantized.map(_.copy(p = 1)))) { case (data, rho, seed) =>
      sameAndValid(data, rho, seed)
    }, 200)
  }

  test("property: identical to the reference with duplicate points of conflicting labels") {
    check("duplicates", Prop.forAllNoShrink(cases(duplicated)) { case (data, rho, seed) => sameAndValid(data, rho, seed) }, 200)
  }

  test("property: identical to the reference with one sample per class, or a single class") {
    val oneEach = Gen.choose(1, 6).map(q => Layout(n = q, p = 2, classes = q, levels = 3, oneEach = true))
    val single = Gen.choose(1, 40).map(n => Layout(n, p = 2, classes = 1, levels = 4))
    check("degenerate classes", Prop.forAllNoShrink(cases(Gen.oneOf(oneEach, single))) { case (data, rho, seed) =>
      sameAndValid(data, rho, seed)
    }, 200)
  }

  test("property: identical to the reference on continuous data, rho up to beyond n") {
    val continuous = for (n <- Gen.choose(2, 60); p <- Gen.choose(1, 5); q <- Gen.choose(2, 4))
      yield Layout(n, p, q, levels = 0)
    val bigRho = for ((data, _, seed) <- cases(continuous); extra <- Gen.choose(0, 5)) yield (data, data.size + extra, seed)
    check("continuous", Prop.forAllNoShrink(cases(continuous)) { case (data, rho, seed) => sameAndValid(data, rho, seed) }, 200)
    check("rho > n", Prop.forAllNoShrink(bigRho) { case (data, rho, seed) => sameAndValid(data, math.max(2, rho), seed) }, 100)
  }

  test("property: identical to the reference at n >> K, where the neighbour lists run out") {
    val big = Gen.choose(150, 400)
    val tieHeavy = for (n <- big; p <- Gen.choose(1, 3); q <- Gen.choose(1, 4); lv <- Gen.choose(2, 5)) yield Layout(n, p, q, lv)
    val dups = for (n <- big; p <- Gen.choose(1, 3); q <- Gen.choose(2, 3)) yield Layout(n, p, q, levels = 2)
    // Separated class clusters: the first ball of a cluster holds more
    // samples than a list, and one in `flip` labels is flipped inside them.
    val clean = for (n <- big; p <- Gen.choose(1, 3); q <- Gen.choose(2, 3); flip <- Gen.oneOf(0, 20))
      yield Layout(n, p, q, levels = 0, sep = 20.0, flip = flip)
    check("n >> K", Prop.forAllNoShrink(cases(Gen.oneOf(tieHeavy, dups, clean))) { case (data, rho, seed) =>
      sameAndValid(data, rho, seed)
    }, 60)
  }

  test("neighbourLists equals a brute-force (sqrt distance, id) sort of D - {i}, across block counts") {
    // Partial blocks, n < K, and odd block counts (3 and 5: a bye each round).
    for (n <- Seq(0, 1, 2, 16, 17, 63, 64, 65, 129, 3 * 64 + 5, 4 * 64 + 1); p <- 1 to 3; seed <- 0 until 3) {
      val (x, ids) = tieHeavyRows(n, p, seed)
      for (k <- Seq(16, 3))
        assert(RDGBG.neighbourLists(x, p, ids, k).sameElements(bruteLists(x, p, ids, k)), s"n = $n, p = $p, seed = $seed, k = $k")
    }
  }

  test("identical to the reference on all 13 datasets at 0 and 20 % noise (maxN = 400)") {
    for (i <- DatasetGen.specs.indices; nz <- Seq(0.0, 0.2)) {
      val clean = DatasetGen.generate(DatasetGen.specs(i), 400, 48, seed = 7)
      val data = DatasetGen.standardize(DatasetGen.withNoise(clean, nz, 49 + i), Vector.empty)._1
      assert(sameAndValid(data, 5, 42 + i), s"${DatasetGen.specs(i).id} at noise $nz")
    }
  }
}

object RDGBGDiffSpec {

  /** Shape of a generated dataset. `levels > 0` quantizes every feature to
    * that many integer levels (many exact distance ties); `oneEach` gives
    * every class exactly one sample. `sep > 0` shifts every feature of a
    * class-`y` sample by `y * sep`, and then `flip > 0` moves about one in
    * `flip` samples to the next class without moving it.
    */
  final case class Layout(n: Int, p: Int, classes: Int, levels: Int, oneEach: Boolean = false,
                          sep: Double = 0.0, flip: Int = 0)

  val quantized: Gen[Layout] =
    for (n <- Gen.choose(1, 60); p <- Gen.choose(1, 4); q <- Gen.choose(1, 4); lv <- Gen.choose(2, 5))
      yield Layout(n, p, q, lv)

  /** Few distinct positions, so exact duplicate points carry conflicting labels. */
  val duplicated: Gen[Layout] =
    for (n <- Gen.choose(2, 50); p <- Gen.choose(1, 3); q <- Gen.choose(2, 3)) yield Layout(n, p, q, levels = 2)

  /** Data for a layout, ρ in [2, 9] and an RD-GBG seed. Ids are distinct
    * but shuffled, so id order differs from data order.
    */
  def cases(layout: Gen[Layout]): Gen[(Vector[Point], Int, Long)] =
    for {
      l <- layout
      rows <- Gen.listOfN(l.n, Gen.zip(
        Gen.listOfN(l.p, if (l.levels > 0) Gen.choose(0, l.levels - 1).map(_.toDouble) else Gen.choose(-3.0, 3.0)),
        Gen.choose(0, l.classes - 1),
        if (l.flip > 0) Gen.choose(0, l.flip - 1).map(_ == 0) else Gen.const(false)))
      ids <- Gen.pick(l.n, 0L until 10L * l.n)
      shuffle <- Gen.long
      rho <- Gen.choose(2, 9)
      seed <- Gen.choose(0L, 1000L)
    } yield {
      val shuffled = new scala.util.Random(shuffle).shuffle(ids.toVector)
      val data = rows.zipWithIndex.map { case ((x, y0, flipped), i) =>
        val y = if (l.oneEach) i % l.classes else y0
        val f = if (l.sep == 0) x else x.map(_ + y * l.sep)
        Point(f.toArray, if (flipped) (y + 1) % l.classes else y, shuffled(i))
      }.toVector
      (data, rho, seed)
    }

  /** `n` rows of `p` features drawn from {0, 1, sqrt(2), 2} (many exact
    * ties, and sums that differ by an ulp but share their `sqrt`), about
    * one in four a copy of an earlier row, and distinct shuffled ids.
    */
  def tieHeavyRows(n: Int, p: Int, seed: Long): (Array[Double], Array[Long]) = {
    val rng = new scala.util.Random(seed)
    val levels = Array(0.0, 1.0, math.sqrt(2), 2.0)
    val x = new Array[Double](n * p)
    for (i <- 0 until n) {
      if (i > 0 && rng.nextInt(4) == 0) System.arraycopy(x, rng.nextInt(i) * p, x, i * p, p)
      else for (f <- 0 until p) x(i * p + f) = levels(rng.nextInt(levels.length))
    }
    (x, rng.shuffle((0L until 10L * n).toVector).take(n).toArray)
  }

  /** Each row's min(k, n - 1) nearest other rows by a full sort on
    * (`sqrt` of the squared distance, id), row-major.
    */
  def bruteLists(x: Array[Double], p: Int, ids: Array[Long], k: Int): Array[Int] = {
    val n = ids.length
    val byDistId = Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long)
    Array.tabulate(n) { i =>
      (0 until n).filter(_ != i).sortBy(j => (math.sqrt(Neighbors.sqDist(x, i * p, x, j * p, p)), ids(j)))(byDistId)
        .take(math.min(k, n - 1))
    }.flatten
  }

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)
  def ballKey(b: GranularBall) = (b.center.toVector.map(bits), bits(b.radius), b.label, b.points.map(_.id))

  /** Exact equality of the ordered balls and noise against the reference,
    * and the ball invariants of the result.
    */
  def sameAndValid(data: Vector[Point], rho: Int, seed: Long): Boolean = {
    val got = RDGBG.generate(data, rho, seed)
    val want = RDGBGReference.generate(data, rho, seed)
    got.balls.map(ballKey) == want.balls.map(ballKey) && got.noise.map(_.id) == want.noise.map(_.id) &&
      valid(data, got)
  }

  /** Purity 1.0, every member within its ball, no two balls overlapping,
    * and every sample in exactly one ball or the noise.
    */
  def valid(data: Vector[Point], res: RDGBGResult): Boolean = {
    val balls = res.balls
    val kept = balls.flatMap(_.points.map(_.id)) ++ res.noise.map(_.id)
    balls.forall(b => b.purity == 1.0 && b.covers()) &&
      balls.indices.forall(i => balls.indices.forall(j => j <= i || !balls(i).overlaps(balls(j)))) &&
      kept.size == data.size && kept.toSet == data.map(_.id).toSet
  }
}
