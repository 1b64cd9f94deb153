"""OFC: the paper's primary contribution.

This package wires the FaaS platform (:mod:`repro.faas`), the RSDS
(:mod:`repro.storage`) and the distributed cache (:mod:`repro.kvcache`)
into the Opportunistic FaaS Cache:

* :class:`~repro.core.predictor.Predictor` — per-invocation memory and
  cache-benefit prediction on the critical path (§5.1, §5.2);
* :class:`~repro.core.trainer.ModelTrainer` — training-set curation,
  the maturation criterion, selective retraining (§5.3);
* :class:`~repro.core.monitor.Monitor` — cgroup polling, dynamic cap
  raising for long invocations, post-hoc peak reporting (§5.3.1);
* :class:`~repro.core.proxy.RcLibClient` — transparent interposition of
  function reads/writes, shadow objects and write-back (§6.2);
* :class:`~repro.core.persistor.PersistorService` — asynchronous
  persistence of cached payloads to the RSDS via helper functions;
* :class:`~repro.core.cache_agent.CacheAgent` — per-node vertical
  scaling, slack pool, admission/eviction policy (§6.3, §6.4);
* :class:`~repro.core.routing.OFCScheduler` — locality-aware request
  routing (§6.5);
* :class:`~repro.core.ofc.OFCPlatform` — the assembled system.
"""

from repro import lazy_exports

#: Public name -> the module that defines it, imported on first access.
_EXPORTS = {
    "CacheAgent": ".cache_agent",
    "extract_features": ".features",
    "ModelTrainer": ".trainer",
    "Monitor": ".monitor",
    "OFCConfig": ".config",
    "OFCMetrics": ".metrics",
    "OFCPlatform": ".ofc",
    "OFCScheduler": ".routing",
    "PersistorService": ".persistor",
    "Predictor": ".predictor",
    "RcLibClient": ".proxy",
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
