"""The four multi-stage applications of the evaluation (§7).

* **map_reduce** — MapReduce word count over a large text document
  (split → map over chunks → reduce), as in Pocket/Locus-style
  serverless analytics.
* **THIS** — Thousand Island Scanner: distributed video processing
  (decode segments → analyze frames → merge).
* **IMAD** — Illegitimate Mobile App Detector, reimplemented by the
  paper as a sequence of functions (extract → static analysis →
  classify → report).
* **image_processing** — ServerlessBench's image-thumbnail pipeline
  (extract metadata → transform → thumbnail).

Every stage is a :class:`StageFunction` with its own hidden footprint
and duration model; intermediate objects carry feature metadata so
OFC's per-function predictors work on pipeline stages too.  A stage's
body applies the same per-invocation footprint noise as a single-stage
function (:func:`repro.workloads.functions.truth_noise`, keyed by the
stage invocation's request id); ``footprint_mb(..., rng)`` draws it from
``rng`` instead, for offline callers.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faas.pipeline import fan_out_over_refs, Pipeline, Stage
from repro.faas.registry import FunctionSpec
from repro.sim.latency import KB, MB
from repro.workloads.functions import apply_noise, noisy, truth_noise
from repro.workloads.media import (
    ImageDescriptor,
    MediaCorpus,
    TextDescriptor,
    VideoDescriptor,
)


def _fan_in(prev_refs: List[str], base_args: Dict[str, Any]):
    """Planner: one invocation receiving every previous output."""
    return [({**base_args, "refs": list(prev_refs)}, None)]


class StageFunction:
    """One pipeline stage's function: hidden models plus a generic body."""

    name: str = ""
    input_kind: Optional[str] = None
    booked_mb: float = 512.0
    runtime_base_mb: float = 64.0

    def footprint_mb(
        self, payloads: List[Any], args: Dict[str, Any], rng=None
    ) -> float:
        raise NotImplementedError

    def duration_s(self, payloads: List[Any], args: Dict[str, Any]) -> float:
        raise NotImplementedError

    def outputs(
        self, payloads: List[Any], args: Dict[str, Any], request_id: int
    ) -> List[Tuple[str, Any, int]]:
        """(object name, payload, byte size) triples to write."""
        raise NotImplementedError

    def make_body(self, truth_seed: int = 0) -> Callable:
        def body(ctx):
            request = ctx.request
            refs = ctx.args.get("refs")
            if refs is None:
                refs = [request.input_ref] if request.input_ref else []
            payloads = []
            for ref in refs:
                bucket, name = ref.split("/", 1)
                obj = yield from ctx.read(bucket, name)
                payloads.append(obj.payload)
            footprint = apply_noise(
                self.footprint_mb(payloads, ctx.args),
                truth_noise(truth_seed, request.request_id),
            )
            duration = self.duration_s(payloads, ctx.args)
            yield from ctx.compute(duration, footprint)
            for out_name, payload, size in self.outputs(
                payloads, ctx.args, request.request_id
            ):
                user_meta = (
                    payload.features() if hasattr(payload, "features") else None
                )
                yield from ctx.write(
                    request.output_bucket,
                    out_name,
                    payload,
                    size,
                    user_meta=user_meta,
                )

        return body

    def spec(self, tenant: str, truth_seed: int = 0) -> FunctionSpec:
        return FunctionSpec(
            name=self.name,
            tenant=tenant,
            body=self.make_body(truth_seed),
            booked_memory_mb=self.booked_mb,
            input_kind=self.input_kind,
        )


class PipelineApp:
    """A deployable multi-stage application."""

    def __init__(
        self,
        name: str,
        stages: List[StageFunction],
        planners: Optional[List[Callable]] = None,
    ):
        self.name = name
        self.stage_functions = stages
        planners = planners or [None] * len(stages)
        self.pipeline = Pipeline(
            name=name,
            stages=[
                Stage(fn.name) if planner is None else Stage(fn.name, planner)
                for fn, planner in zip(stages, planners)
            ],
        )

    def register(self, platform, tenant: str = "t0", truth_seed: int = 0) -> None:
        for fn in self.stage_functions:
            platform.register_function(fn.spec(tenant, truth_seed))

    def prepare_inputs(self, store, corpus: MediaCorpus, total_size: int):
        """Generator writing input objects; returns their refs."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# MapReduce word count.
# ---------------------------------------------------------------------------

_CHUNK_BYTES = 2 * MB


class MRSplit(StageFunction):
    name = "mr_split"
    input_kind = "text"
    booked_mb = 512.0

    def footprint_mb(self, payloads, args, rng=None):
        doc: TextDescriptor = payloads[0]
        return noisy(self.runtime_base_mb + doc.size / MB * 2.2, rng)

    def duration_s(self, payloads, args):
        doc: TextDescriptor = payloads[0]
        return 0.01 + doc.size / MB * 0.008

    def outputs(self, payloads, args, request_id):
        doc: TextDescriptor = payloads[0]
        n_chunks = max(1, math.ceil(doc.size / _CHUNK_BYTES))
        outs = []
        for i in range(n_chunks):
            size = min(_CHUNK_BYTES, doc.size - i * _CHUNK_BYTES)
            chunk = TextDescriptor(
                n_words=max(1, doc.n_words // n_chunks),
                n_lines=max(1, doc.n_lines // n_chunks),
                size=int(size),
            )
            outs.append((f"mr-chunk-{request_id}-{i}", chunk, chunk.size))
        return outs


class MRMap(StageFunction):
    name = "mr_map"
    input_kind = "text"
    booked_mb = 256.0
    runtime_base_mb = 54.0

    def footprint_mb(self, payloads, args, rng=None):
        chunk: TextDescriptor = payloads[0]
        return noisy(self.runtime_base_mb + chunk.size / MB * 3.2, rng)

    def duration_s(self, payloads, args):
        chunk: TextDescriptor = payloads[0]
        return 0.01 + chunk.n_words * 3.2e-6

    def outputs(self, payloads, args, request_id):
        chunk: TextDescriptor = payloads[0]
        out_size = max(128, int(2500 * math.log2(2 + chunk.n_words)))
        counts = TextDescriptor(
            n_words=min(chunk.n_words, 4000), n_lines=1, size=out_size
        )
        return [(f"mr-map-{request_id}", counts, out_size)]


class MRReduce(StageFunction):
    name = "mr_reduce"
    input_kind = "text"
    booked_mb = 512.0

    def footprint_mb(self, payloads, args, rng=None):
        total = sum(p.size for p in payloads) / MB
        return noisy(self.runtime_base_mb + total * 6.0, rng)

    def duration_s(self, payloads, args):
        total_words = sum(p.n_words for p in payloads)
        return 0.01 + total_words * 0.5e-6

    def outputs(self, payloads, args, request_id):
        out_size = max(256, max(p.size for p in payloads))
        result = TextDescriptor(
            n_words=max(p.n_words for p in payloads), n_lines=1, size=out_size
        )
        return [(f"mr-result-{request_id}", result, out_size)]


class MapReduceApp(PipelineApp):
    def __init__(self):
        super().__init__(
            name="map_reduce",
            stages=[MRSplit(), MRMap(), MRReduce()],
            planners=[None, fan_out_over_refs, _fan_in],
        )

    def prepare_inputs(self, store, corpus: MediaCorpus, total_size: int):
        doc = corpus.text(total_size)
        store.ensure_bucket("inputs")
        name = f"mr-doc-{total_size}"
        yield from store.put(
            "inputs", name, doc, size=doc.size, user_meta=doc.features()
        )
        return [f"inputs/{name}"]


# ---------------------------------------------------------------------------
# THIS: distributed video processing.
# ---------------------------------------------------------------------------

_SEGMENT_BYTES = 4 * MB


class ThisDecode(StageFunction):
    name = "this_decode"
    input_kind = "video"
    booked_mb = 1024.0
    runtime_base_mb = 96.0

    def footprint_mb(self, payloads, args, rng=None):
        seg: VideoDescriptor = payloads[0]
        gop = 12 if seg.codec == "mpeg2" else 24
        return noisy(self.runtime_base_mb + seg.frame_mb * gop * 1.5, rng)

    def duration_s(self, payloads, args):
        seg: VideoDescriptor = payloads[0]
        return 0.03 + seg.frames * seg.frame_mb * 0.0004

    def outputs(self, payloads, args, request_id):
        seg: VideoDescriptor = payloads[0]
        # Down-sampled decoded frames batch (capped near the 10 MB
        # cacheable limit, as THIS stores resized frames).
        out_size = min(int(seg.frames * seg.frame_mb * MB * 0.02), 8 * MB)
        out_size = max(out_size, 64 * KB)
        decoded = VideoDescriptor(
            duration_s=seg.duration_s,
            width=seg.width // 4,
            height=seg.height // 4,
            fps=seg.fps,
            codec="raw",
            size=out_size,
        )
        return [(f"this-frames-{request_id}", decoded, out_size)]


class ThisAnalyze(StageFunction):
    name = "this_analyze"
    input_kind = "video"
    booked_mb = 1024.0
    runtime_base_mb = 130.0  # detector model resident

    def footprint_mb(self, payloads, args, rng=None):
        frames: VideoDescriptor = payloads[0]
        return noisy(
            self.runtime_base_mb + frames.size / MB * 4.0 + frames.frame_mb * 6,
            rng,
        )

    def duration_s(self, payloads, args):
        frames: VideoDescriptor = payloads[0]
        return 0.05 + frames.frames * 0.0011

    def outputs(self, payloads, args, request_id):
        out_size = 48 * KB
        result = TextDescriptor(n_words=2000, n_lines=100, size=out_size)
        return [(f"this-result-{request_id}", result, out_size)]


class ThisMerge(StageFunction):
    name = "this_merge"
    input_kind = "text"
    booked_mb = 512.0

    def footprint_mb(self, payloads, args, rng=None):
        total = sum(p.size for p in payloads) / MB
        return noisy(self.runtime_base_mb + total * 3.0, rng)

    def duration_s(self, payloads, args):
        return 0.02 + len(payloads) * 0.004

    def outputs(self, payloads, args, request_id):
        out_size = max(64 * KB, sum(p.size for p in payloads) // 4)
        result = TextDescriptor(n_words=5000, n_lines=300, size=out_size)
        return [(f"this-final-{request_id}", result, out_size)]


class ThisApp(PipelineApp):
    def __init__(self):
        super().__init__(
            name="THIS",
            stages=[ThisDecode(), ThisAnalyze(), ThisMerge()],
            planners=[fan_out_over_refs, fan_out_over_refs, _fan_in],
        )

    def prepare_inputs(self, store, corpus: MediaCorpus, total_size: int):
        store.ensure_bucket("inputs")
        n_segments = max(1, math.ceil(total_size / _SEGMENT_BYTES))
        refs = []
        for i in range(n_segments):
            size = min(_SEGMENT_BYTES, total_size - i * _SEGMENT_BYTES)
            segment = corpus.video(size)
            name = f"this-seg-{total_size}-{i}"
            yield from store.put(
                "inputs",
                name,
                segment,
                size=segment.size,
                user_meta=segment.features(),
            )
            refs.append(f"inputs/{name}")
        return refs


# ---------------------------------------------------------------------------
# IMAD: illegitimate mobile app detector (sequential).
# ---------------------------------------------------------------------------


class ImadExtract(StageFunction):
    name = "imad_extract"
    input_kind = "image"  # app bundle treated as opaque archive
    booked_mb = 512.0

    def footprint_mb(self, payloads, args, rng=None):
        bundle = payloads[0]
        return noisy(self.runtime_base_mb + bundle.size / MB * 3.5, rng)

    def duration_s(self, payloads, args):
        return 0.02 + payloads[0].size / MB * 0.01

    def outputs(self, payloads, args, request_id):
        bundle = payloads[0]
        out_size = max(32 * KB, int(bundle.size * 0.3))
        manifest = TextDescriptor(
            n_words=out_size // 6, n_lines=out_size // 60, size=out_size
        )
        return [(f"imad-manifest-{request_id}", manifest, out_size)]


class ImadStatic(StageFunction):
    name = "imad_static"
    input_kind = "text"
    booked_mb = 1024.0
    runtime_base_mb = 88.0

    def footprint_mb(self, payloads, args, rng=None):
        manifest: TextDescriptor = payloads[0]
        return noisy(self.runtime_base_mb + manifest.size / MB * 12.0, rng)

    def duration_s(self, payloads, args):
        return 0.05 + payloads[0].size / MB * 0.06

    def outputs(self, payloads, args, request_id):
        out_size = 96 * KB
        findings = TextDescriptor(n_words=8000, n_lines=600, size=out_size)
        return [(f"imad-findings-{request_id}", findings, out_size)]


class ImadClassify(StageFunction):
    name = "imad_classify"
    input_kind = "text"
    booked_mb = 1024.0
    runtime_base_mb = 240.0  # classifier model resident

    def footprint_mb(self, payloads, args, rng=None):
        findings: TextDescriptor = payloads[0]
        return noisy(self.runtime_base_mb + findings.size / MB * 6.0, rng)

    def duration_s(self, payloads, args):
        return 0.12 + payloads[0].n_words * 3e-6

    def outputs(self, payloads, args, request_id):
        out_size = 8 * KB
        verdict = TextDescriptor(n_words=500, n_lines=40, size=out_size)
        return [(f"imad-verdict-{request_id}", verdict, out_size)]


class ImadReport(StageFunction):
    name = "imad_report"
    input_kind = "text"
    booked_mb = 256.0
    runtime_base_mb = 58.0

    def footprint_mb(self, payloads, args, rng=None):
        return noisy(self.runtime_base_mb + 4.0, rng)

    def duration_s(self, payloads, args):
        return 0.015

    def outputs(self, payloads, args, request_id):
        out_size = 16 * KB
        report = TextDescriptor(n_words=1200, n_lines=90, size=out_size)
        return [(f"imad-report-{request_id}", report, out_size)]


class ImadApp(PipelineApp):
    def __init__(self):
        super().__init__(
            name="IMAD",
            stages=[ImadExtract(), ImadStatic(), ImadClassify(), ImadReport()],
        )

    def prepare_inputs(self, store, corpus: MediaCorpus, total_size: int):
        store.ensure_bucket("inputs")
        bundle = corpus.image(total_size)  # archive: size is what matters
        name = f"imad-app-{total_size}"
        yield from store.put(
            "inputs",
            name,
            bundle,
            size=bundle.size,
            user_meta=bundle.features(),
        )
        return [f"inputs/{name}"]


# ---------------------------------------------------------------------------
# ServerlessBench Image Processing (thumbnail pipeline).
# ---------------------------------------------------------------------------


class IpExtractMeta(StageFunction):
    name = "ip_extract_meta"
    input_kind = "image"
    booked_mb = 256.0
    runtime_base_mb = 60.0

    def footprint_mb(self, payloads, args, rng=None):
        img: ImageDescriptor = payloads[0]
        return noisy(self.runtime_base_mb + img.decoded_mb * 1.1, rng)

    def duration_s(self, payloads, args):
        return 0.008 + payloads[0].decoded_mb * 0.001

    def outputs(self, payloads, args, request_id):
        img: ImageDescriptor = payloads[0]
        # Pass the image through, annotated.
        return [(f"ip-annotated-{request_id}", img, img.size)]


class IpTransform(StageFunction):
    name = "ip_transform"
    input_kind = "image"
    booked_mb = 512.0
    runtime_base_mb = 82.0

    def footprint_mb(self, payloads, args, rng=None):
        img: ImageDescriptor = payloads[0]
        return noisy(self.runtime_base_mb + img.decoded_mb * 2.4, rng)

    def duration_s(self, payloads, args):
        return 0.012 + payloads[0].decoded_mb * 0.005

    def outputs(self, payloads, args, request_id):
        img: ImageDescriptor = payloads[0]
        return [(f"ip-transformed-{request_id}", img, img.size)]


class IpThumbnail(StageFunction):
    name = "ip_thumbnail"
    input_kind = "image"
    booked_mb = 512.0
    runtime_base_mb = 82.0

    def footprint_mb(self, payloads, args, rng=None):
        img: ImageDescriptor = payloads[0]
        return noisy(self.runtime_base_mb + img.decoded_mb * 1.6, rng)

    def duration_s(self, payloads, args):
        return 0.01 + payloads[0].decoded_mb * 0.003

    def outputs(self, payloads, args, request_id):
        img: ImageDescriptor = payloads[0]
        thumb = ImageDescriptor(
            width=128,
            height=max(1, int(128 * img.height / max(img.width, 1))),
            channels=img.channels,
            format=img.format,
            size=max(2 * KB, img.size // 50),
        )
        return [(f"ip-thumb-{request_id}", thumb, thumb.size)]


class ImageProcessingApp(PipelineApp):
    def __init__(self):
        super().__init__(
            name="image_processing",
            stages=[IpExtractMeta(), IpTransform(), IpThumbnail()],
        )

    def prepare_inputs(self, store, corpus: MediaCorpus, total_size: int):
        store.ensure_bucket("inputs")
        img = corpus.image(total_size)
        name = f"ip-img-{total_size}"
        yield from store.put(
            "inputs", name, img, size=img.size, user_meta=img.features()
        )
        return [f"inputs/{name}"]


ALL_PIPELINES: Dict[str, PipelineApp] = {
    app.name: app
    for app in [MapReduceApp(), ThisApp(), ImadApp(), ImageProcessingApp()]
}


def get_pipeline_app(name: str) -> PipelineApp:
    try:
        return ALL_PIPELINES[name]
    except KeyError:
        raise KeyError(f"unknown pipeline: {name}") from None
