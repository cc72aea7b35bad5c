package repro.core

/** The nearest-neighbour kernel. RD-GBG (Eq. 2's ρ nearest and its
  * (distance, id) order), the kNN learner, the SMOTE family, Tomek links,
  * GGBS's surface points and k-division's nearest centroid all search
  * through it.
  *
  * Rows are flat row-major `Array[Double]` matrices, `p` values a row.
  * Distances are summed left to right (`Point.sqDist` delegates here), so
  * every caller gets the same bits. Candidates are ordered by (distance,
  * key), where the caller supplies both arrays: each caller keeps its own
  * order (ties by id or by row index; squared or `sqrt` distances) by what
  * it passes in.
  */
object Neighbors {

  /** Squared Euclidean distance between the `p` values starting at
    * `a(aOff)` and those starting at `b(bOff)`, summed left to right.
    */
  def sqDist(a: Array[Double], aOff: Int, b: Array[Double], bOff: Int, p: Int): Double = {
    var s = 0.0; var f = 0
    while (f < p) { val d = a(aOff + f) - b(bOff + f); s += d * d; f += 1 }
    s
  }

  /** True iff candidate `a` comes before `b`: smaller `d`, or equal `d`
    * and smaller `key`.
    */
  def before(a: Int, b: Int, d: Array[Double], key: Array[Long]): Boolean =
    d(a) < d(b) || (d(a) == d(b) && key(a) < key(b))

  /** Bounded insertion top-k. `buf(from until from + size)` holds the at
    * most `k` best candidates so far, in (distance, `key`) order, and `bufD`
    * at the same indices their distances; offers candidate `j` at distance
    * `dj` and returns the new size. `from` lets one pair of arrays hold many
    * lists side by side, `k` entries apart.
    */
  def offer(buf: Array[Int], bufD: Array[Double], size: Int, k: Int, j: Int, dj: Double, key: Array[Long],
            from: Int = 0): Int = {
    def before(at: Int) = dj < bufD(from + at) || (dj == bufD(from + at) && key(j) < key(buf(from + at)))
    val full = size >= k
    if (full && (k <= 0 || !before(k - 1))) return size
    var at = if (full) k - 1 else size
    while (at > 0 && before(at - 1)) { buf(from + at) = buf(from + at - 1); bufD(from + at) = bufD(from + at - 1); at -= 1 }
    buf(from + at) = j; bufD(from + at) = dj
    if (full) size else size + 1
  }

  /** Indices of the at most `k` rows of `rows` nearest to the query `q`,
    * by (squared distance, `key`). There are `key.length` rows; row
    * `exclude` is skipped (-1 skips none).
    */
  def kNearest(rows: Array[Double], p: Int, q: Array[Double], k: Int,
               key: Array[Long], exclude: Int = -1): Array[Int] = {
    require(q.length == p, s"dimension mismatch: ${q.length} vs $p")
    val n = key.length
    val buf = new Array[Int](math.max(0, math.min(k, n)))
    val bufD = new Array[Double](buf.length)
    var size = 0; var j = 0
    while (j < n) {
      if (j != exclude) size = offer(buf, bufD, size, buf.length, j, sqDist(rows, j * p, q, 0, p), key)
      j += 1
    }
    if (size == buf.length) buf else buf.take(size)
  }

  /** The features of `pts` as one row-major matrix. */
  def rows(pts: collection.Seq[Point]): Array[Double] = {
    val p = pts.headOption.fold(0)(_.dim)
    val x = new Array[Double](pts.size * p)
    var off = 0
    pts.foreach { pt =>
      require(pt.dim == p, s"dimension mismatch: sample id ${pt.id} has ${pt.dim} values, the first sample has $p")
      System.arraycopy(pt.features, 0, x, off, p); off += p
    }
    x
  }
}
