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
  * which also compacts it. At the start each sample's K = 16 nearest other
  * samples by (distance, id) are listed once, an O(n²·p) build that sums
  * each pair's distance once for both lists, run on every core through
  * [[Parallel.forEach]] as a round-robin tournament of block tiles
  * (`neighbourLists`). One rule set, `decide`, reads Eq.2–6
  * from a prefix of U - {c} in (distance, id) order, and says when the
  * prefix holds all it reads (its three conditions). An attempt fills the
  * prefix from its candidate's list, skipping samples no longer in U; when
  * that cannot decide, with nothing changed, one O(|U|·p) scan of
  * primitive distances over U fills it with every sample up to the
  * distance the decision reads, which alone are sorted. On the 20 %-noise
  * datasets at their full fold's size the scan answers 5.2 % of the
  * attempts on S5, none on S8, S10 and S13, and 3 of 44 002 on S11.
  * Every distance is `math.sqrt` of the left-to-right sum of
  * [[Neighbors.sqDist]], and the lists, Eq.2's buffer and the scan's sort
  * all use the [[Neighbors]] order by (distance, id), so the balls equal
  * those of a full (distance, id) sort of U. In that
  * sort the homogeneous prefix of Eq.3 ends at the first heterogeneous
  * sample, and homogeneous samples tied with it at the same distance are
  * cut so no heterogeneous sample lies on the ball (purity 1.0); the
  * prefix is therefore exactly the samples strictly closer than the
  * nearest heterogeneous one. Eq.5 and 6 then reduce to one rule: the
  * radius is the largest prefix distance within the conflict radius of
  * Eq.4.
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
    checkIds(pts)
    new Granulation(pts, rho, new Random(seed)).run()
  }

  /** Rejects a repeated id (U is a set of samples keyed by id), naming the
    * first sample in data order whose id an earlier one holds. A sorted
    * copy of the ids finds whether one repeats; only then are they walked
    * in data order.
    */
  private def checkIds(pts: Array[Point]): Unit = {
    val ids = new Array[Long](pts.length)
    var i = 0
    while (i < ids.length) { ids(i) = pts(i).id; i += 1 }
    java.util.Arrays.sort(ids)
    i = 1
    while (i < ids.length && ids(i) != ids(i - 1)) i += 1
    if (i < ids.length) {
      val seen = mutable.HashSet.empty[Long]
      pts.foreach(pt => require(seen.add(pt.id), s"duplicate sample id ${pt.id}"))
    }
  }

  /** Length of each sample's nearest-neighbour list. */
  private val K = 16
  /** Samples a block of the list build holds. */
  private val Block = 64

  /** Each of the n = `ids.length` samples' kk = min(`k`, n - 1) nearest
    * other samples by (distance, id), row-major: entry `i * kk + e` is the
    * `e`-th nearest to row `i` of `x` (`p` values a row). A distance is
    * `math.sqrt` of the left-to-right sum of [[Neighbors.sqDist]], and
    * (a - b)² equals (b - a)², so each pair's sum is made once and offered
    * to both lists; a list is the top kk by (distance, id) whatever order
    * its offers come in.
    *
    * The samples are cut into blocks of `Block`. First each block's own
    * pairs run, a task a block. Then the pairs of distinct blocks run as a
    * round-robin tournament (the circle method): m, the block count
    * rounded up to even (an odd count gives one block a bye each round),
    * makes m - 1 rounds of m / 2 tiles, each tile two distinct blocks.
    * Tiles of one round therefore write disjoint lists, and run
    * concurrently through [[Parallel.forEach]] with no lock. A tile passes
    * over its second block with four rows of its first side by side, so
    * their four sums add side by side (one sum at a time waits on each
    * add); past the block's end the last row repeats, and its sums are not
    * offered. A full list rejects a sum above `sqBound` of its last
    * distance before any `sqrt`.
    */
  private[core] def neighbourLists(x: Array[Double], p: Int, ids: Array[Long], k: Int): Array[Int] = {
    val n = ids.length
    val kk = math.max(0, math.min(k, n - 1))
    val out = new Array[Int](n * kk)
    val outD = new Array[Double](n * kk)
    val size = new Array[Int](n)
    val lim = Array.fill(n)(Double.PositiveInfinity)
    def offer(i: Int, j: Int, s: Double): Unit =
      if (s <= lim(i)) {
        size(i) = Neighbors.offer(out, outD, size(i), kk, j, math.sqrt(s), ids, i * kk)
        if (size(i) == kk) lim(i) = sqBound(outD(i * kk + kk - 1))
      }
    def tile(a: Int, b: Int): Unit = {
      val aEnd = math.min(n, a * Block + Block); val bEnd = math.min(n, b * Block + Block)
      var first = a * Block
      while (first < aEnd) {
        val rows = aEnd - first
        val i0 = first; val i1 = math.min(first + 1, aEnd - 1)
        val i2 = math.min(first + 2, aEnd - 1); val i3 = math.min(first + 3, aEnd - 1)
        val o0 = i0 * p; val o1 = i1 * p; val o2 = i2 * p; val o3 = i3 * p
        var j = b * Block
        while (j < bEnd) {
          val off = j * p
          var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
          var f = 0
          while (f < p) {
            val xj = x(off + f)
            val d0 = xj - x(o0 + f); s0 += d0 * d0
            val d1 = xj - x(o1 + f); s1 += d1 * d1
            val d2 = xj - x(o2 + f); s2 += d2 * d2
            val d3 = xj - x(o3 + f); s3 += d3 * d3
            f += 1
          }
          offer(i0, j, s0); offer(j, i0, s0)
          if (rows > 1) { offer(i1, j, s1); offer(j, i1, s1) }
          if (rows > 2) { offer(i2, j, s2); offer(j, i2, s2) }
          if (rows > 3) { offer(i3, j, s3); offer(j, i3, s3) }
          j += 1
        }
        first += 4
      }
    }
    val nb = (n + Block - 1) / Block
    Parallel.forEach(nb) { b =>
      val end = math.min(n, b * Block + Block)
      var i = b * Block
      while (i < end) {
        var j = i + 1
        while (j < end) { val s = Neighbors.sqDist(x, j * p, x, i * p, p); offer(i, j, s); offer(j, i, s); j += 1 }
        i += 1
      }
    }
    // Round r pairs block m - 1 with r, and (r + t) % (m - 1) with
    // (r - t) mod (m - 1) for t = 1 until m / 2; over the rounds each pair
    // of blocks meets once. When nb is odd, block m - 1 = nb is the bye.
    val m = nb + (nb & 1)
    var round = 0
    while (round < m - 1) {
      val r = round
      Parallel.forEach(m / 2) { t =>
        val a = if (t == 0) m - 1 else (r + t) % (m - 1)
        if (a < nb) tile(a, (r - t + m - 1) % (m - 1))
      }
      round += 1
    }
    out
  }

  /** A squared sum above this has a `math.sqrt` above `d`: the margin
    * covers the rounding of `sqrt` and of `d * d`, and the floor keeps
    * that relative margin out of the subnormal range.
    */
  private def sqBound(d: Double): Double = math.max(d * d * (1 + 1e-14), java.lang.Double.MIN_NORMAL)

  /** State of one `generate` call. Samples are addressed by their index in
    * `pts`; U and L (L subset of U) are flags, with the size of U, the
    * per-class sizes of U and the per-class sizes of T = U - L.
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
    /** Per-class sizes of U and of T = U - L. */
    private val uCount = new Array[Int](labels.length)
    private val tCount = new Array[Int](labels.length)
    cls.foreach { g => uCount(g) += 1; tCount(g) += 1 }
    /** U in data order, compacted once per iteration; samples may leave U
      * during an iteration, so every pass also tests `inU`.
      */
    private val live = Array.range(0, n)
    private var liveN = n

    /** Each sample's `kk` nearest other samples of D by (distance, id),
      * row-major: `lists(c * kk + e)` is the `e`-th nearest to `c`.
      */
    private val kk = math.max(0, math.min(K, n - 1))
    private val lists = neighbourLists(x, p, ids, K)
    /** The first samples of U - {c} in (distance, id) order for the current
      * candidate `c`, as `fromList` or `fromScan` fill it: every one closer
      * than sample `bound`, or all of U - {c} when `bound` is -1. `decide`
      * compacts a new ball's members into it in place.
      */
    private val found = new Array[Int](n)
    private var bound = -1

    /** Distance of each sample in U to the current candidate (the scan). */
    private val dist = new Array[Double](n)
    private val nearest = new Array[Int](math.min(rho, n))
    private val nearestD = new Array[Double](nearest.length)
    /** Centers (row-major) and radii of the balls generated so far, for
      * Eq.4; both grow by doubling.
      */
    private var ballX = new Array[Double](16 * p)
    private var ballR = new Array[Double](16)
    private var ballN = 0

    private val balls = Vector.newBuilder[GranularBall]
    private val noise = Vector.newBuilder[Point]

    def run(): RDGBGResult = {
      val kth = new Array[Int](labels.length)
      val pick = new Array[Int](labels.length)
      val groups = new Array[Int](labels.length)
      while (tCount.exists(_ > 0)) {
        // T = U - L, grouped by label, larger groups first (ties in label
        // order: a stable insertion sort). Each group draws k and offers its
        // k-th member in data order as the candidate; the same pass
        // compacts U.
        var gN = 0; var g = 0
        while (g < labels.length) {
          if (tCount(g) > 0) {
            var at = gN
            while (at > 0 && tCount(groups(at - 1)) < tCount(g)) { groups(at) = groups(at - 1); at -= 1 }
            groups(at) = g; gN += 1
          }
          g += 1
        }
        g = 0
        while (g < gN) { kth(groups(g)) = rng.nextInt(tCount(groups(g))); g += 1 }
        var w = 0; var k = 0
        while (k < liveN) {
          val i = live(k)
          if (inU(i)) {
            live(w) = i; w += 1
            if (!inL(i)) { val ci = cls(i); if (kth(ci) == 0) pick(ci) = i; kth(ci) -= 1 }
          }
          k += 1
        }
        liveN = w

        g = 0
        while (g < gN) { val c = pick(groups(g)); if (inU(c) && !inL(c)) attempt(c); g += 1 }
      }

      // Orphan stage: every remaining undivided sample is its own ball.
      for (i <- 0 until n if inU(i)) balls += GranularBall(pts(i).features, 0.0, pts(i).label, Vector(pts(i)))
      RDGBGResult(balls.result(), noise.result())
    }

    /** Eq.2-6 for candidate center `c`, from its list or, when the list
      * cannot decide, from a scan over U.
      */
    private def attempt(c: Int): Unit =
      if (uSize == 1) markLow(c) // no neighbor left: degenerate, becomes an orphan
      else if (!decide(c, fromList(c)) && !decide(c, fromScan(c)))
        throw new IllegalStateException(s"the scan over U did not decide sample ${pts(c).id}")

    /** Fills `found` from `c`'s list. Its entries still in U are the first
      * samples of U - {c} in (distance, id) order, and every sample closer
      * than its last entry is listed.
      */
    private def fromList(c: Int): Int = {
      var got = 0; var e = 0
      while (e < kk) { val j = lists(c * kk + e); if (inU(j)) { found(got) = j; got += 1 }; e += 1 }
      bound = if (kk < n - 1) lists(c * kk + kk - 1) else -1
      got
    }

    /** Fills `found` from one O(|U|·p) scan over U with every sample of
      * U - {c} up to the largest distance `decide` reads: the nearest
      * sample's; Eq.2's `avail`-th nearest's, when the nearest is
      * heterogeneous; and the smaller of Eq.4's conflict radius and the
      * distance to the heterogeneous sample bounding Eq.3's prefix (the
      * second one when the nearest is heterogeneous). Then sorts them by
      * (distance, id).
      */
    private def fromScan(c: Int): Int = {
      // The scan's sum writes out Neighbors.sqDist (the same left-to-right
      // sum, so the same bits), as does Eq.4's: calling it made RD-GBG
      // 17-28 % slower on 4-core x86 under JDK 17, as the JIT optimises the
      // inlined loop less well.
      val lc = cls(c); val cOff = c * p
      val avail = math.min(rho, uSize - 1)
      var size = 0
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
          size = Neighbors.offer(nearest, nearestD, size, avail, j, d, ids)
          if (cls(j) != lc) { if (d < het1) { het2 = het1; het1 = d } else if (d < het2) het2 = d }
        }
        k += 1
      }
      val hetNN = cls(nearest(0)) != lc
      val hetD = if (hetNN) het2 else het1 // of the heterogeneous sample bounding Eq.3's prefix
      val upTo = math.max(nearestD(if (hetNN) avail - 1 else 0), math.min(hetD, conflictRadius(c)))
      var got = 0; bound = -1
      k = 0
      while (k < liveN) {
        val j = live(k)
        if (inU(j) && j != c) {
          if (dist(j) <= upTo) { found(got) = j; got += 1 }
          else if (bound < 0 || dist(j) < dist(bound)) bound = j
        }
        k += 1
      }
      System.arraycopy(found.take(got).sortWith(Neighbors.before(_, _, dist, ids)), 0, found, 0, got)
      got
    }

    /** Eq.2-6 for `c` from `found(0 until got)`, the only code of those
      * rules. It decides when (1) one sample is there; (2) when the nearest
      * is heterogeneous, Eq.2's `avail` nearest are there, or `avail` is all
      * of U - {c}; and (3) the heterogeneous sample bounding Eq.3's prefix
      * is there, or every sample of U within Eq.4's conflict radius is (it
      * lies before `bound`). All three are checked before any state
      * changes; returns false, having changed nothing, when one fails.
      */
    private def decide(c: Int, got: Int): Boolean = {
      if (got == 0) return false                                             // (1)
      val lc = cls(c); val nn = found(0)
      val nnNoise = cls(nn) != lc
      if (nnNoise) {
        // Eq.2: heterogeneous count among the rho nearest neighbors.
        val avail = math.min(rho, uSize - 1)
        val h =
          if (avail == uSize - 1) uSize - uCount(lc)
          else if (got < avail) return false                                 // (2)
          else { var h = 0; var i = 0; while (i < avail) { if (cls(found(i)) != lc) h += 1; i += 1 }; h }
        if (h == avail) { leaveU(c); noise += pts(c); return true }          // center is class noise
        if (h != 1) { markLow(c); return true }                              // indistinguishable: low-density
      }
      var end = if (nnNoise) 1 else 0 // Eq.3's prefix is found(0 until end); found(end) bounds it
      while (end < got && cls(found(end)) == lc) end += 1
      val rConf = conflictRadius(c)
      if (end == got && bound >= 0 && distTo(c, bound) <= rConf) return false // (3)

      if (nnNoise) { leaveU(nn); noise += pts(nn) } // the nearest neighbor is class noise
      // Eq.3/5/6: the members are the homogeneous samples strictly closer than
      // the bounding one and within Eq.4's conflict radius; r, their largest
      // distance, is Eq.5's CR when CR <= rConf and Eq.6's radius otherwise.
      val hetD = if (end < got) distTo(c, found(end)) else Double.PositiveInfinity
      var m = 0; var r = 0.0
      var k = 0
      while (k < end) {
        val j = found(k)
        if (cls(j) == lc) {
          val d = distTo(c, j)
          if (d < hetD && d <= rConf) { found(m) = j; m += 1; if (d > r) r = d }
        }
        k += 1
      }
      if (r > 0.0) addBall(c, found.take(m), r) else markLow(c)
      true
    }

    /** Eq.4: distance from `c` to the closest ball generated so far. */
    private def conflictRadius(c: Int): Double = {
      val cOff = c * p
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
      rConf
    }

    /** The scan's distance from `c` to `j`. */
    private def distTo(c: Int, j: Int): Double = math.sqrt(Neighbors.sqDist(x, j * p, x, c * p, p))

    /** A ball of radius `r` around `c` with members `inside`, in (distance,
      * id) order.
      */
    private def addBall(c: Int, inside: Array[Int], r: Double): Unit = {
      val members = (inside.iterator.map(pts(_)) ++ Iterator.single(pts(c))).toVector
      balls += GranularBall(pts(c).features, r, pts(c).label, members)
      if (ballN == ballR.length) {
        ballR = java.util.Arrays.copyOf(ballR, 2 * ballN)
        ballX = java.util.Arrays.copyOf(ballX, 2 * ballN * p)
      }
      System.arraycopy(x, c * p, ballX, ballN * p, p)
      ballR(ballN) = r; ballN += 1
      inside.foreach(leaveU); leaveU(c)
    }

    private def leaveU(i: Int): Unit = {
      inU(i) = false; uSize -= 1; uCount(cls(i)) -= 1
      if (inL(i)) inL(i) = false else tCount(cls(i)) -= 1
    }

    private def markLow(i: Int): Unit = { inL(i) = true; tCount(cls(i)) -= 1 }
  }
}
