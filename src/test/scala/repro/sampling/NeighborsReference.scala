package repro.sampling

import repro.core.Point

/** The neighbour searches that SMOTE, Borderline-SMOTE and Tomek links used
  * before `repro.core.Neighbors`, kept verbatim as the reference of
  * `NeighborsDiffSpec`.
  */
object NeighborsReference {

  /** The `k` nearest points to `x` within `pool`, excluding any point with
    * the same id as `x`; ties broken by id for determinism.
    */
  def kNearest(x: Point, pool: Vector[Point], k: Int): Vector[Point] =
    pool.iterator
      .filter(_.id != x.id)
      .map(p => (p, p.sqDist(x)))
      .toVector
      .sortBy { case (p, d) => (d, p.id) }
      .take(k)
      .map(_._1)

  /** Index of the single nearest neighbor of `pool(i)` inside `pool`. */
  def nearestIndex(pool: Vector[Point], i: Int): Int = {
    var best = -1; var bestD = Double.PositiveInfinity
    var j = 0
    while (j < pool.size) {
      if (j != i) {
        val d = pool(j).sqDist(pool(i))
        if (d < bestD || (d == bestD && best >= 0 && pool(j).id < pool(best).id)) {
          bestD = d; best = j
        }
      }
      j += 1
    }
    best
  }
}
