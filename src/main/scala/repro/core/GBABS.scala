package repro.core

import scala.collection.mutable

/** Result of GB-based approximate borderline sampling.
  *
  * @param sampled        the borderline sample set S (no duplicates)
  * @param balls          the granular balls generated by RD-GBG
  * @param noise          class-noise samples removed by RD-GBG
  * @param borderlineIdx  indices (into `balls`) of the borderline balls
  * @param originalSize   |D|, for sampling-ratio accounting
  */
final case class GBABSResult(
    sampled: Vector[Point],
    balls: Vector[GranularBall],
    noise: Vector[Point],
    borderlineIdx: Set[Int],
    originalSize: Int,
) {
  /** Sampling ratio |S| / |D| relative to the original dataset. */
  def samplingRatio: Double =
    if (originalSize == 0) 0.0 else sampled.size.toDouble / originalSize
}

/** GB-based Approximate Borderline Sampling (Algorithm 2).
  *
  * The centers of all balls form the positional summary of the dataset.
  * Along every feature dimension the centers are sorted; an adjacent pair
  * of heterogeneous centers marks both balls as borderline in that
  * dimension, and each ball of the pair contributes its sample nearest the
  * shared boundary: the left ball's sample with the largest coordinate and
  * the right ball's sample with the smallest (Fig.4 of the paper).
  */
object GBABS {

  /** Borderline sampling over an existing ball set with `p` features.
    *
    * Reads only the balls' labels, centers and members, flattened in one
    * O(n·p) pass: per (dimension, ball) the first largest and the first
    * smallest member in `java.lang.Double.compare` order, as `maxBy` and
    * `minBy` pick them. Each dimension's centers are then ordered by
    * [[orderAlong]], its buffers reused for every dimension. A member is
    * taken in first-take order, and only if no taken member holds its id
    * already (a ball set may repeat an id).
    */
  def sampleBalls(balls: Vector[GranularBall], p: Int): (Vector[Point], Set[Int]) = {
    val nb = balls.size
    if (nb < 2) return (Vector.empty, Set.empty)
    val bs = balls.toArray
    val label = new Array[Int](nb)
    val centers = new Array[Double](p * nb) // column-major: dimension d of ball j at d * nb + j
    val first = new Array[Int](nb + 1)     // ball j's members are members(first(j) until first(j + 1))
    var j = 0
    while (j < nb) { label(j) = bs(j).label; first(j + 1) = first(j) + bs(j).size; j += 1 }
    val members = new Array[Point](first(nb))
    // Row-major per ball: its largest and smallest member along d at j * p + d.
    val largest, smallest = new Array[Int](nb * p)
    val hi, lo = new Array[Double](p) // their values along each d
    j = 0
    while (j < nb) {
      val b = bs(j)
      require(b.size > 0, s"ball $j has no members")
      val row = j * p
      java.util.Arrays.fill(largest, row, row + p, first(j))
      java.util.Arrays.fill(smallest, row, row + p, first(j))
      var d = 0
      while (d < p) { centers(d * nb + j) = b.center(d); d += 1 }
      b.points.copyToArray(members, first(j))
      System.arraycopy(members(first(j)).features, 0, hi, 0, p)
      System.arraycopy(members(first(j)).features, 0, lo, 0, p)
      var m = first(j) + 1
      while (m < first(j + 1)) {
        val f = members(m).features
        d = 0
        while (d < p) {
          val v = f(d)
          if (java.lang.Double.compare(v, hi(d)) > 0) { hi(d) = v; largest(row + d) = m }
          if (java.lang.Double.compare(v, lo(d)) < 0) { lo(d) = v; smallest(row + d) = m }
          d += 1
        }
        m += 1
      }
      j += 1
    }

    val borderline = new Array[Boolean](nb)
    val taken = new Array[Boolean](members.length)
    val takenIds = new mutable.LongMap[Unit]
    val sampled = Vector.newBuilder[Point]
    def take(m: Int): Unit = if (!taken(m)) {
      taken(m) = true
      val x = members(m)
      if (!takenIds.contains(x.id)) { takenIds.update(x.id, ()); sampled += x }
    }
    val scratch = new RadixScratch(nb)
    var d = 0
    while (d < p) {
      val order = orderAlong(centers, d * nb, nb, scratch)
      var t = 0
      while (t < nb - 1) {
        val a = order(t); val b = order(t + 1)
        if (label(a) != label(b)) {
          borderline(a) = true; borderline(b) = true
          take(largest(a * p + d)); take(smallest(b * p + d))
        }
        t += 1
      }
      d += 1
    }
    (sampled.result(), (0 until nb).filter(borderline(_)).toSet)
  }

  /** Buffers of [[orderAlong]] for columns of up to `capacity` values,
    * allocated once and reused for every column.
    */
  private[repro] final class RadixScratch(capacity: Int) {
    private[GBABS] var key, keyTo = new Array[Long](capacity)
    private[GBABS] var idx, idxTo = new Array[Int](capacity)
    /** Per byte `b` of the key, the count of each digit at `b * 256 + digit`. */
    private[GBABS] val count = new Array[Int](8 * 256)
  }

  /** The one ordering routine of the system: orders `values(from until
    * from + m)` in `java.lang.Double.compare` order, ties in position
    * order, by a stable LSD radix sort (Knuth, TAOCP Vol. 3, §5.2.5). It
    * returns `s`'s index buffer, whose entry `t < m` is the position (from
    * `from`) of the `t`-th value in order, until `s` is used again.
    *
    * Each value maps to an unsigned 64-bit key in `Double.compare` order:
    * `doubleToLongBits` with the magnitude bits of a negative flipped, and
    * the sign bit flipped so that negatives come first. The keys are sorted
    * 8 bits a pass from the lowest byte, a pass being skipped when every key
    * has the same digit there.
    */
  private[core] def orderAlong(values: Array[Double], from: Int, m: Int, s: RadixScratch): Array[Int] = {
    val count = s.count
    java.util.Arrays.fill(count, 0)
    var i = 0
    while (i < m) {
      val bits = java.lang.Double.doubleToLongBits(values(from + i))
      val k = bits ^ ((bits >> 63) | Long.MinValue)
      s.key(i) = k; s.idx(i) = i
      var b = 0
      while (b < 8) { count((b << 8) | ((k >>> (b << 3)).toInt & 0xFF)) += 1; b += 1 }
      i += 1
    }
    var b = 0
    while (m > 1 && b < 8) {
      val base = b << 8; val shift = b << 3
      if (count(base | ((s.key(0) >>> shift).toInt & 0xFF)) != m) { // some key has another digit here
        var sum = 0; var c = 0
        while (c < 256) { val n = count(base | c); count(base | c) = sum; sum += n; c += 1 }
        val key = s.key; val idx = s.idx; val keyTo = s.keyTo; val idxTo = s.idxTo
        i = 0
        while (i < m) {
          val k = key(i); val at = base | ((k >>> shift).toInt & 0xFF)
          val to = count(at); count(at) = to + 1
          keyTo(to) = k; idxTo(to) = idx(i)
          i += 1
        }
        s.key = keyTo; s.keyTo = key
        s.idx = idxTo; s.idxTo = idx
      }
      b += 1
    }
    s.idx
  }

  /** The distinct `values`, ascending in `java.lang.Double.compare` order,
    * and each value's code: its position among them. Codes are dense and
    * order the values as `Double.compare` does, equal values sharing one.
    * One walk over [[orderAlong]]'s order gives the codes, and the codes
    * the distinct values.
    */
  private[repro] def encode(values: Array[Double], s: RadixScratch): (Array[Double], Array[Int]) = {
    val n = values.length
    val order = orderAlong(values, 0, n, s)
    val key = s.key
    val code = new Array[Int](n)
    var m = 0; var t = 0
    while (t < n) {
      if (t > 0 && key(t) != key(t - 1)) m += 1
      code(order(t)) = m
      t += 1
    }
    val distinct = new Array[Double](if (n == 0) 0 else m + 1)
    var i = 0
    while (i < n) { distinct(code(i)) = values(i); i += 1 }
    (distinct, code)
  }

  /** Full pipeline: RD-GBG granulation then borderline sampling.
    *
    * If the ball set is single-class (no class boundary exists — e.g. a
    * partition that happens to hold one class), every sample is kept, since
    * discarding an entire region would be worse than not compressing it.
    */
  def run(data: Seq[Point], rho: Int = 5, seed: Long = 42): GBABSResult = {
    if (data.isEmpty) return GBABSResult(Vector.empty, Vector.empty, Vector.empty, Set.empty, 0)
    val gen = RDGBG.generate(data, rho, seed)
    val p = data.head.dim
    val labels = gen.balls.map(_.label).distinct
    if (labels.size <= 1) {
      GBABSResult(gen.balls.flatMap(_.points), gen.balls, gen.noise, Set.empty, data.size)
    } else {
      val (sampled, bIdx) = sampleBalls(gen.balls, p)
      GBABSResult(sampled, gen.balls, gen.noise, bIdx, data.size)
    }
  }
}
