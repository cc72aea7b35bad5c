package repro.sampling

import repro.core.{Neighbors, Point}

/** Tomek links undersampling (baseline).
  *
  * A Tomek link is a pair of mutually nearest neighbors with different
  * labels. Following the usual undersampling convention (imblearn's
  * `auto` strategy), the link member whose class is NOT the global
  * minority class is removed.
  */
object TomekLinks {

  /** All Tomek-link index pairs (i < j) in `data`. */
  def links(data: Vector[Point]): Vector[(Int, Int)] = {
    val rows = Neighbors.rows(data); val ids = data.map(_.id).toArray
    val nn = data.indices.map { i =>
      Neighbors.kNearest(rows, data(i).dim, data(i).features, 1, ids, exclude = i).headOption.getOrElse(-1)
    }
    data.indices.flatMap { i =>
      val j = nn(i)
      if (j > i && nn(j) == i && data(i).label != data(j).label) Some((i, j)) else None
    }.toVector
  }

  /** Remove the non-minority member(s) of every Tomek link. */
  def sample(data: Vector[Point]): Vector[Point] = {
    if (data.isEmpty) return data
    val counts = data.groupBy(_.label).view.mapValues(_.size).toMap
    if (counts.size <= 1) return data
    val minority = counts.minBy { case (lab, c) => (c, lab) }._1
    val drop = scala.collection.mutable.Set.empty[Int]
    links(data).foreach { case (i, j) =>
      if (data(i).label != minority) drop += i
      if (data(j).label != minority) drop += j
    }
    data.indices.filterNot(drop.contains).map(data).toVector
  }
}
