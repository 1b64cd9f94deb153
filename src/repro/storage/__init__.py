"""Remote shared data store (RSDS) substrate.

A Swift/S3-like object store running on the simulation kernel: buckets,
objects with metadata and version numbers, registrable read/write
webhooks (the interposition point OFC's consistency protocol relies on,
§6.2 of the paper), and configurable latency profiles so the same store
class can stand in for OpenStack Swift, AWS S3 or an ElastiCache-Redis
style in-memory object cache (IMOC).  The profiles are defined in the
calibration table, :mod:`repro.sim.latency`, and re-exported here.
"""

from repro.sim.latency import (
    LatencyProfile,
    REDIS_PROFILE,
    S3_PROFILE,
    SWIFT_PROFILE,
)
from repro.storage.errors import (
    BucketExists,
    NoSuchBucket,
    NoSuchObject,
    StorageError,
)
from repro.storage.meta import ObjectMeta, StoredObject
from repro.storage.object_store import ObjectStore, StoreStats

__all__ = [
    "BucketExists",
    "LatencyProfile",
    "NoSuchBucket",
    "NoSuchObject",
    "ObjectMeta",
    "ObjectStore",
    "REDIS_PROFILE",
    "S3_PROFILE",
    "SWIFT_PROFILE",
    "StorageError",
    "StoreStats",
    "StoredObject",
]
