package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Waits until the listener bus has delivered every posted event, so the
  * benchmark reads complete counters. The bus is private to Spark, hence
  * this package.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
