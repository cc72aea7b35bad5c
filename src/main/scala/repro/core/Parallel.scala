package repro.core

import java.util.stream.IntStream

/** The one parallel loop of the system: RD-GBG's neighbour lists, GBDT's
  * class trees, RF's trees and `Classifier.predictAll` run through it.
  */
object Parallel {
  /** Runs `body(0)` … `body(n - 1)` concurrently on the common fork-join
    * pool (the caller helps), returning once all are done. The pool's size
    * is capped by the JDK property `java.util.concurrent.ForkJoinPool.common.parallelism`.
    */
  private[repro] def forEach(n: Int)(body: Int => Unit): Unit =
    IntStream.range(0, n).parallel().forEach(i => body(i))
}
