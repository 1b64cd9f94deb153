"""RAMCloud-like distributed in-memory key-value cache.

This package reproduces the slice of RAMCloud that OFC relies on
(§6.1): a coordinator plus per-worker storage servers, each combining a
*master* (in-RAM primary copies, log-structured) and a *backup* (on-disk
replica copies for other masters).  On top of vanilla RAMCloud, the
paper's extensions are implemented here as well:

* per-object read-access counter ``n_access`` and last-access epoch
  ``t_access`` (§6.3, used by the eviction policy);
* a 10 MB maximum object size (the paper raised RAMCloud's 1 MB limit);
* dynamically resizable per-server memory pools (§6.4);
* the optimized master hand-off migration that promotes a backup to
  master without any inter-node payload transfer (§6.4).

:mod:`repro.kvcache.backend` holds the cache contract every
architecture in :mod:`repro.cache` implements.  It lives here because
the cluster derives from it and ``repro.core`` imports the cluster,
while ``repro.cache`` imports ``repro.core``.
"""

from repro import lazy_exports

#: Public name -> the module that defines it, imported on first access.
_EXPORTS = {
    "CacheCluster": ".cluster",
    "CacheError": ".errors",
    "CacheObject": ".objects",
    "CacheServer": ".server",
    "CapacityExceeded": ".errors",
    "Coordinator": ".coordinator",
    "NoSuchKey": ".errors",
    "ObjectLog": ".log",
    "ObjectTooLarge": ".errors",
    "Segment": ".log",
    "ServerDown": ".errors",
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
