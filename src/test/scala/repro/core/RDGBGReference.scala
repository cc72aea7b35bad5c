package repro.core

import scala.collection.mutable
import scala.util.Random

/** The original RD-GBG implementation (one full (distance, id) sort of U per
  * candidate attempt), kept verbatim as the reference that the optimised
  * `RDGBG.generate` must reproduce exactly. Test-only; see RDGBGDiffSpec.
  */
object RDGBGReference {

  /** Run RD-GBG over `data` with density tolerance `rho` (paper default 5). */
  def generate(data: Seq[Point], rho: Int = 5, seed: Long = 42): RDGBGResult = {
    require(rho >= 2, s"density tolerance must be >= 2, got $rho")
    val rng = new Random(seed)

    // Undivided set U and low-density set L (L subset of U), keyed by id.
    val u = mutable.LinkedHashMap.empty[Long, Point]
    data.foreach(p => u.put(p.id, p))
    val l = mutable.LinkedHashSet.empty[Long]
    val balls = Vector.newBuilder[GranularBall]
    val ballList = mutable.ArrayBuffer.empty[GranularBall]
    val noise = Vector.newBuilder[Point]

    var done = false
    while (!done) {
      // T = U - L, grouped by label, larger groups first.
      val t = u.valuesIterator.filterNot(p => l.contains(p.id)).toVector
      if (t.isEmpty) done = true
      else {
        val groups = t.groupBy(_.label).toVector.sortBy { case (lab, ps) => (-ps.size, lab) }
        val candidates = groups.map { case (_, ps) => ps(rng.nextInt(ps.size)) }

        for (c <- candidates if u.contains(c.id) && !l.contains(c.id)) {
          // Distances from c to every other undivided sample, ascending.
          val others = u.valuesIterator.filter(_.id != c.id).toArray
          if (others.isEmpty) {
            l.add(c.id) // no neighbor left: degenerate, becomes an orphan
          } else {
            val byDist = others.map(p => (p, p.dist(c))).sortBy { case (p, d) => (d, p.id) }
            val nearest = byDist.head._1

            var centerOk = true
            var dropped: Option[Point] = None
            if (nearest.label != c.label) {
              // Eq.2: heterogeneous count among the rho nearest neighbors.
              val avail = math.min(rho, byDist.length)
              val h = byDist.take(avail).count(_._1.label != c.label)
              if (h == avail) {            // center is class noise
                u.remove(c.id); noise += c; centerOk = false
              } else if (h == 1) {         // the nearest neighbor is class noise
                u.remove(nearest.id); l.remove(nearest.id); noise += nearest
                dropped = Some(nearest)
              } else {                     // indistinguishable: low-density
                l.add(c.id); centerOk = false
              }
            }

            if (centerOk) {
              val neigh = dropped match {
                case Some(nz) => byDist.filter(_._1.id != nz.id)
                case None     => byDist
              }
              // omega = length of the homogeneous prefix (Eq.3).
              var omega = 0
              while (omega < neigh.length && neigh(omega)._1.label == c.label) omega += 1
              // Distance ties at the boundary: a heterogeneous sample at
              // exactly the prefix distance must not fall inside the ball,
              // so shrink the radius strictly below it (purity 1.0).
              if (omega < neigh.length) {
                val hetD = neigh(omega)._2
                while (omega > 0 && neigh(omega - 1)._2 >= hetD) omega -= 1
              }
              val cr = if (omega == 0) 0.0 else neigh(omega - 1)._2

              // Eq.4: distance to the closest previously generated ball.
              var rConf = Double.PositiveInfinity
              ballList.foreach { gb =>
                val d = Point.dist(gb.center, c.features) - gb.radius
                if (d < rConf) rConf = d
              }

              // Eq.5/6: restrict the consistent radius by the conflict radius.
              val r =
                if (cr <= rConf) cr
                else {
                  var rm = 0.0; var i = 0
                  while (i < omega) { val d = neigh(i)._2; if (d <= rConf && d > rm) rm = d; i += 1 }
                  rm
                }

              if (r > 0.0) {
                val members = neigh.take(omega).takeWhile(_._2 <= r).map(_._1).toVector :+ c
                val gb = GranularBall(c.features, r, c.label, members)
                ballList += gb; balls += gb
                members.foreach { m => u.remove(m.id); l.remove(m.id) }
              } else {
                l.add(c.id)
              }
            }
          }
        }
        if (u.valuesIterator.forall(p => l.contains(p.id))) done = true
      }
    }

    // Orphan stage: every remaining undivided sample is its own ball.
    u.valuesIterator.foreach { p =>
      balls += GranularBall(p.features, 0.0, p.label, Vector(p))
    }
    RDGBGResult(balls.result(), noise.result())
  }
}
