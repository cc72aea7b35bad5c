package repro.core

import scala.collection.mutable
import scala.util.Random

/** Result of the RD-GBG granulation stage.
  *
  * @param balls  generated granular balls (pure, non-overlapping), including
  *               the radius-0 orphan balls built at termination
  * @param noise  samples judged as class noise and removed from the dataset
  */
final case class RDGBGResult(balls: Vector[GranularBall], noise: Vector[Point]) {
  /** Total samples covered by balls (excludes removed noise). */
  def covered: Int = balls.map(_.size).sum
}

/** Restricted Diffusion-based Granular-Ball Generation (Algorithm 1).
  *
  * Iteratively: pick one random candidate center per class among the
  * undivided non-low-density samples (larger classes first), run
  * local-density center detection (Eq.2) — which doubles as class-noise
  * detection — then grow a pure ball around each eligible center, stopping
  * at the first heterogeneous sample (Eq.3) or at the nearest previously
  * generated ball (Eq.4–6) so balls never overlap. Terminates when every
  * undivided sample is low-density; remaining samples become radius-0
  * orphan balls (completeness).
  *
  * Cost: the per-class sizes of T = U - L are kept where samples leave U
  * or join L, so an iteration draws its candidates in one pass over U,
  * which also compacts it. Each candidate attempt is one O(|U|·p) scan of
  * primitive distances over U, with no sort. The scan finds the nearest
  * sample by (distance, id) and the nearest heterogeneous distances; Eq.2
  * takes the ρ nearest from a bounded insertion buffer over the stored
  * distances. One more pass over the stored distances collects the ball's
  * members (Eq.3–6), and only they are sorted. Every distance is
  * `math.sqrt` of the left-to-right sum of [[Neighbors.sqDist]], and the
  * nearest sample, Eq.2's buffer and the member sort all use the
  * [[Neighbors]] order by (distance, id), so the balls equal those of a
  * full (distance, id) sort of U. In that sort the homogeneous
  * prefix of Eq.3 ends at the first heterogeneous sample, and homogeneous
  * samples tied with it at the same distance are cut so no heterogeneous
  * sample lies on the ball (purity 1.0); the prefix is therefore exactly
  * the samples strictly closer than the nearest heterogeneous one. Eq.5
  * and 6 then reduce to one rule: the radius is the largest prefix
  * distance within the conflict radius of Eq.4.
  */
object RDGBG {

  /** Run RD-GBG over `data` with density tolerance `rho` (paper default 5).
    *
    * @throws IllegalArgumentException if `rho < 2`, or if `data` holds a
    *         duplicate id, a missing or ragged feature array, or a NaN or
    *         infinite feature value (the message names the first such id)
    */
  def generate(data: Seq[Point], rho: Int = 5, seed: Long = 42): RDGBGResult = {
    require(rho >= 2, s"density tolerance must be >= 2, got $rho")
    val pts = data.toArray
    Point.checkFeatures(pts)
    val seen = mutable.HashSet.empty[Long] // U is a set of samples keyed by id
    pts.foreach(pt => require(seen.add(pt.id), s"duplicate sample id ${pt.id}"))
    new Granulation(pts, rho, new Random(seed)).run()
  }

  /** State of one `generate` call. Samples are addressed by their index in
    * `pts`; U and L (L subset of U) are flags, with the size of U and
    * the per-class sizes of T = U - L.
    */
  private final class Granulation(pts: Array[Point], rho: Int, rng: Random) {
    private val n = pts.length
    private val p = if (n == 0) 0 else pts(0).dim
    /** Row-major features. */
    private val x = Neighbors.rows(pts)
    /** Classes indexed in label order. */
    private val labels = pts.map(_.label).distinct.sorted
    private val cls = pts.map(pt => java.util.Arrays.binarySearch(labels, pt.label))
    private val ids = pts.map(_.id)

    private val inU = Array.fill(n)(true)
    private val inL = new Array[Boolean](n)
    private var uSize = n
    /** Per-class size of T = U - L. */
    private val tCount = new Array[Int](labels.length)
    cls.foreach(g => tCount(g) += 1)
    /** U in data order, compacted once per iteration; samples may leave U
      * during an iteration, so every pass also tests `inU`.
      */
    private val live = Array.range(0, n)
    private var liveN = n

    /** Distance of each sample in U to the current candidate. */
    private val dist = new Array[Double](n)
    private val member = new Array[Int](n)
    private val nearest = new Array[Int](math.min(rho, n))
    private val nearestD = new Array[Double](nearest.length)
    /** Centers (row-major) and radii of the balls generated so far, for Eq.4. */
    private val ballX = new Array[Double](n * p)
    private val ballR = new Array[Double](n)
    private var ballN = 0

    private val balls = Vector.newBuilder[GranularBall]
    private val noise = Vector.newBuilder[Point]

    def run(): RDGBGResult = {
      val kth = new Array[Int](labels.length)
      val pick = new Array[Int](labels.length)
      while (tCount.exists(_ > 0)) {
        // T = U - L, grouped by label, larger groups first. Each group draws
        // k and offers its k-th member in data order as the candidate; the
        // same pass compacts U.
        val groups = labels.indices.filter(tCount(_) > 0).sortBy(g => -tCount(g))
        groups.foreach(g => kth(g) = rng.nextInt(tCount(g)))
        var w = 0; var k = 0
        while (k < liveN) {
          val i = live(k)
          if (inU(i)) {
            live(w) = i; w += 1
            if (!inL(i)) { val g = cls(i); if (kth(g) == 0) pick(g) = i; kth(g) -= 1 }
          }
          k += 1
        }
        liveN = w

        groups.foreach { g => val c = pick(g); if (inU(c) && !inL(c)) attempt(c) }
      }

      // Orphan stage: every remaining undivided sample is its own ball.
      for (i <- 0 until n if inU(i)) balls += GranularBall(pts(i).features, 0.0, pts(i).label, Vector(pts(i)))
      RDGBGResult(balls.result(), noise.result())
    }

    /** Eq.2-6 for candidate center `c`. */
    private def attempt(c: Int): Unit = {
      if (uSize == 1) { markLow(c); return } // no neighbor left: degenerate, becomes an orphan

      // One scan over U: distances, the nearest sample by (distance, id),
      // and the two smallest heterogeneous distances. This loop and Eq.4's
      // write out Neighbors.sqDist (the same left-to-right sum, so the same
      // bits): calling it made RD-GBG 17-28 % slower on 4-core x86 under
      // JDK 17, as the JIT optimises the inlined loop less well.
      val lc = cls(c); val cOff = c * p
      var nn = -1; var het = 0
      var het1 = Double.PositiveInfinity; var het2 = Double.PositiveInfinity
      var k = 0
      while (k < liveN) {
        val j = live(k)
        if (inU(j) && j != c) {
          val off = j * p
          var s = 0.0; var f = 0
          while (f < p) { val d = x(off + f) - x(cOff + f); s += d * d; f += 1 }
          val d = math.sqrt(s)
          dist(j) = d
          if (nn < 0 || Neighbors.before(j, nn, dist, ids)) nn = j
          if (cls(j) != lc) {
            het += 1
            if (d < het1) { het2 = het1; het1 = d } else if (d < het2) het2 = d
          }
        }
        k += 1
      }

      var hetD = het1
      if (cls(nn) != lc) {
        // Eq.2: heterogeneous count among the rho nearest neighbors.
        val avail = math.min(rho, uSize - 1)
        val h = if (avail == uSize - 1) het else heteroAmongNearest(c, avail)
        if (h == avail) {            // center is class noise
          leaveU(c); noise += pts(c); return
        } else if (h == 1) {         // the nearest neighbor is class noise
          leaveU(nn); noise += pts(nn)
          het -= 1; hetD = het2
        } else {                     // indistinguishable: low-density
          markLow(c); return
        }
      }

      // Eq.4: distance to the closest previously generated ball.
      var rConf = Double.PositiveInfinity
      var b = 0
      while (b < ballN) {
        val off = b * p
        var s = 0.0; var f = 0
        while (f < p) { val d = ballX(off + f) - x(cOff + f); s += d * d; f += 1 }
        val d = math.sqrt(s) - ballR(b)
        if (d < rConf) rConf = d
        b += 1
      }

      // Eq.3/5/6: the members are the homogeneous samples strictly closer than
      // the nearest heterogeneous one and within rConf; r, their largest
      // distance, is Eq.5's CR when CR <= rConf and Eq.6's radius otherwise.
      var m = 0; var r = 0.0
      k = 0
      while (k < liveN) {
        val j = live(k)
        if (inU(j) && j != c && cls(j) == lc && (het == 0 || dist(j) < hetD) && dist(j) <= rConf) {
          member(m) = j; m += 1
          if (dist(j) > r) r = dist(j)
        }
        k += 1
      }

      if (r > 0.0) {
        val inside = member.take(m).sortWith(Neighbors.before(_, _, dist, ids))
        val members = (inside.iterator.map(pts(_)) ++ Iterator.single(pts(c))).toVector
        balls += GranularBall(pts(c).features, r, pts(c).label, members)
        System.arraycopy(x, cOff, ballX, ballN * p, p)
        ballR(ballN) = r; ballN += 1
        inside.foreach(leaveU); leaveU(c)
      } else {
        markLow(c)
      }
    }

    /** Eq.2's h: heterogeneous samples among the `avail` nearest to `c` by
      * (distance, id).
      */
    private def heteroAmongNearest(c: Int, avail: Int): Int = {
      var size = 0; var k = 0
      while (k < liveN) {
        val j = live(k)
        if (inU(j) && j != c) size = Neighbors.offer(nearest, nearestD, size, avail, j, dist(j), ids)
        k += 1
      }
      var h = 0; var i = 0
      while (i < avail) { if (cls(nearest(i)) != cls(c)) h += 1; i += 1 }
      h
    }

    private def leaveU(i: Int): Unit = {
      inU(i) = false; uSize -= 1
      if (inL(i)) inL(i) = false else tCount(cls(i)) -= 1
    }

    private def markLow(i: Int): Unit = { inL(i) = true; tCount(cls(i)) -= 1 }
  }
}
