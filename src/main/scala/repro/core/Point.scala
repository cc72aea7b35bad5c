package repro.core

/** A labeled sample: feature vector, integer class label, and a stable id.
  *
  * The id is assigned once per dataset and survives sampling, so tests can
  * verify sampled ⊆ original by id and dedup borderline samples exactly.
  */
final case class Point(features: Array[Double], label: Int, id: Long) extends Serializable {
  /** Number of features. */
  def dim: Int = features.length

  /** Squared Euclidean distance to another point (no sqrt — monotone). */
  def sqDist(other: Point): Double = Point.sqDist(features, other.features)

  /** Euclidean distance to another point. */
  def dist(other: Point): Double = math.sqrt(sqDist(other))

  /** Euclidean distance to a raw coordinate vector. */
  def distTo(coords: Array[Double]): Double = math.sqrt(Point.sqDist(features, coords))

  override def equals(o: Any): Boolean = o match {
    case p: Point => p.id == id
    case _        => false
  }
  override def hashCode(): Int = java.lang.Long.hashCode(id)
  override def toString: String =
    s"Point(id=$id, label=$label, x=[${features.take(4).map(v => f"$v%.3f").mkString(",")}${if (dim > 4) ",…" else ""}])"
}

object Point {
  /** Squared Euclidean distance between two coordinate vectors. */
  def sqDist(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dimension mismatch: ${a.length} vs ${b.length}")
    Neighbors.sqDist(a, 0, b, 0, a.length)
  }

  /** Euclidean distance between two coordinate vectors. */
  def dist(a: Array[Double], b: Array[Double]): Double = math.sqrt(sqDist(a, b))

  /** Rejects a missing or ragged feature array or a NaN or infinite value, naming the first such id. */
  private[repro] def checkFeatures(pts: Iterable[Point]): Unit = pts.foreach { pt =>
    val f = pt.features
    require(f != null, s"sample id ${pt.id} has no feature array")
    val p = pts.head.features.length
    require(f.length == p, s"ragged features: sample id ${pt.id} has ${f.length} values, the first sample has $p")
    var j = 0
    while (j < p && java.lang.Double.isFinite(f(j))) j += 1
    require(j == p, s"sample id ${pt.id} has a NaN or infinite feature value")
  }

  /** The most frequent of `labels`, ties to the lowest label. */
  private[repro] def mostCommon(labels: IterableOnce[Int]): Int =
    labels.iterator.toSeq.groupMapReduce(identity)(_ => 1)(_ + _).minBy { case (l, c) => (-c, l) }._1
}
