"""The 19 single-stage multimedia function models.

Each :class:`FunctionModel` owns the *hidden ground truth* of one
function: its memory footprint and transform time as functions of the
input media's metadata and the function-specific arguments.  The FaaS
platform and OFC never see these models — they only observe request
features and post-hoc cgroup readings, exactly like the real system.

Calibration notes (tied to the paper's numbers):

* ``wand_sepia`` with 1 kB–3072 kB inputs yields footprints of roughly
  84–152 MB (§7.2.1 / Figure 8): runtime base ≈ 84 MB plus ≈ 1.2 MB per
  decoded megabyte.
* ``wand_edge`` with a 16 kB input has a Transform phase near 30 ms
  (§7.2.1: 180 ms total on OWK-Swift, 32 ms on OFC-LocalHit).
* Footprint noise is a few MB (additive) plus ~1.5 % (multiplicative),
  which produces Table 1's accuracy ladder across 8/16/32 MB intervals.

Footprint noise comes from one of two places.  A deployed body
(:meth:`FunctionModel.make_body`) computes the noiseless footprint and
applies the invocation's own pair of standard normals,
:func:`truth_noise` ``(truth_seed, request_id)``, so a retried request
sees the same footprint.  Offline callers (pretraining, Figure 2,
booking estimates) pass a generator to ``footprint_mb`` and the pair is
drawn from it (:func:`noisy`).
"""

from __future__ import annotations

import hashlib
import math
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import EMPTY
from repro.faas.registry import FunctionSpec
from repro.sim.latency import KB, MB
from repro.workloads import media as media_mod
from repro.workloads.media import (
    AudioDescriptor,
    ImageDescriptor,
    TextDescriptor,
    VideoDescriptor,
)

#: Additive footprint noise (MB) and multiplicative noise (fraction).
#: Calibrated so that Table 1's accuracy ladder across {32, 16, 8} MB
#: intervals holds: a few MB of run-to-run variation.
NOISE_ADD_MB = 1.2
NOISE_MUL = 0.005


def apply_noise(value_mb: float, noise: Tuple[float, float]) -> float:
    """``value_mb`` under one invocation's ``(mul_z, add_z)`` normals."""
    mul_z, add_z = noise
    noisy_mb = value_mb * (1.0 + mul_z * NOISE_MUL)
    noisy_mb += add_z * NOISE_ADD_MB
    return max(1.0, noisy_mb)


def interned(name: str, values) -> Tuple[Dict[str, Any], ...]:
    """One argument dict per value of a discrete argument, built once.

    Every request that draws a value shares its dict, so nothing may
    write ``request.args`` (the pipeline launcher copies the dict before
    it adds its stage index)."""
    return tuple({name: value} for value in values)


def noisy(value_mb: float, rng: Optional[np.random.Generator]) -> float:
    """``value_mb`` with noise drawn from ``rng`` (None: noiseless)."""
    if rng is None:
        return value_mb
    # .tolist() keeps the Python-float type downstream consumers (JSON
    # export) expect; standard_normal(2) draws what two scalar calls do.
    return apply_noise(value_mb, rng.standard_normal(2).tolist())


# -- the hidden per-invocation noise -------------------------------------------
#
# The noise of request ``r`` under truth seed ``s`` is, by definition,
#
#     np.random.default_rng(e).standard_normal(2)
#     with e = int.from_bytes(sha256(f"{s}:{r}")[:8], "big"),
#
# and building that generator (SeedSequence, PCG64, Generator) per
# invocation costs more than drawing from it.  The seeding is a fixed
# integer function of e, so it is computed here for a block of
# consecutive request ids at once:
#
# * ``SeedSequence(e)`` hashes the entropy words (e's 32-bit halves; a
#   second word of 0 is what a one-word e pads to) into a 4-word pool
#   with ``hashmix``/``mix``, whose hash-constant schedule does not
#   depend on the data, then ``generate_state(4, uint64)`` hashes the
#   pool into 8 words.  That is uint32 arithmetic, done on whole blocks
#   with numpy (uint32 arrays wrap exactly like numpy's C code).
# * ``PCG64`` seeds its 128-bit LCG with ``pcg_setseq_128_srandom_r``.
#
# The block then sets one private PCG64 to each id's state in turn and
# draws that id's two normals there, so a call is two indexings into the
# block's 512 doubles.  ``tests/workloads/test_truth_noise.py`` holds
# all of it to the ``default_rng`` form bit for bit.

#: Request ids per derived block, and blocks kept (oldest built leaves
#: first).  Request ids reach the bodies nearly in order; an OOM retry
#: re-runs one a few hundred ids back, which four blocks still hold.
_NOISE_BLOCK = 256
_NOISE_WINDOW = 4

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy/random/bit_generator.pyx (SeedSequence).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
# numpy/random/src/pcg64 (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> List[Tuple[Any, Any]]:
    """Per step, the constant a hash xors in and the one it multiplies by."""
    consts = []
    for _ in range(count):
        following = (init * mult) & _MASK32
        consts.append((np.uint32(init), np.uint32(following)))
        init = following
    return consts


# mix_entropy: one hashmix per pool word, then one per ordered pair.
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
# generate_state(4, uint64): 8 uint32 words.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _seed_states(entropy: np.ndarray) -> List[Tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(e))`` for each uint64 e."""
    steps = iter(_MIX_CONSTS)

    def hashmix(value):
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    low = (entropy & np.uint64(_MASK32)).astype(np.uint32)
    high = (entropy >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = []
    for index, (xor, mult) in enumerate(_STATE_CONSTS):
        value = (pool[index % _POOL_SIZE] ^ xor) * mult
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # Little-endian pairs of uint32 words are the four uint64 words.
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * i] | (words[2 * i + 1] << np.uint64(32))).tolist()
        for i in range(4)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        initstate = (s_hi << 64) | s_lo
        states.append((((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc))
    return states


#: The one generator every block reseeds.  Made with the first block, so
#: that importing this module does not load ``numpy.random``.
_generator: Optional[np.random.Generator] = None


def _block_noise(seed: int, block: int) -> array:
    """The block's ``(mul_z, add_z)`` pairs, flattened into one
    ``array('d')`` of 512 doubles (4 KB): kept as 512 long-lived Python
    objects per block, four blocks fragmented the heap enough to add
    about 0.3 MB of peak RSS."""
    global _generator
    if _generator is None:
        _generator = np.random.Generator(np.random.PCG64())
    bit_generator = _generator.bit_generator
    draw = _generator.standard_normal
    first = block * _NOISE_BLOCK
    digests = b"".join(
        hashlib.sha256(f"{seed}:{request_id}".encode()).digest()[:8]
        for request_id in range(first, first + _NOISE_BLOCK)
    )
    entropy = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    noise = array("d")
    for state, inc in _seed_states(entropy):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        noise.append(draw())
        noise.append(draw())
    return noise


#: Derived blocks by ``(seed, block)``: a cache, never part of a value.
_blocks: Dict[Tuple[int, int], array] = {}


def truth_noise(seed: int, request_id: int) -> Tuple[float, float]:
    """The ``(mul_z, add_z)`` normals of invocation ``request_id``."""
    block, offset = divmod(request_id, _NOISE_BLOCK)
    key = (seed, block)
    noise = _blocks.get(key)
    if noise is None:
        noise = _blocks[key] = _block_noise(seed, block)
        if len(_blocks) > _NOISE_WINDOW:
            del _blocks[next(iter(_blocks))]
    at = 2 * offset
    return noise[at], noise[at + 1]


class FunctionModel:
    """Base class for the hidden behaviour of one function."""

    name: str = ""
    input_kind: str = "image"
    arg_names: List[str] = []
    #: Language runtime + library baseline resident set.
    runtime_base_mb: float = 84.0
    #: Default memory a tenant books for this function.
    default_booked_mb: float = 512.0

    #: A discrete argument's dicts, one per value (:func:`interned`).
    arg_choices: Tuple[Dict[str, Any], ...] = ()

    def sample_args(self, rng: np.random.Generator) -> Dict[str, Any]:
        """Draw a realistic set of function-specific arguments: by
        default one of ``arg_choices``, and no draw when there are none."""
        choices = self.arg_choices
        if not choices:
            return EMPTY
        return choices[rng.integers(0, len(choices))]

    def footprint_mb(
        self,
        media: Any,
        args: Dict[str, Any],
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        raise NotImplementedError

    def transform_time(self, media: Any, args: Dict[str, Any]) -> float:
        raise NotImplementedError

    def output_size(self, media: Any, args: Dict[str, Any]) -> int:
        return int(media.size)

    def output_payload(self, media: Any, args: Dict[str, Any]) -> Any:
        return media

    # -- platform integration --------------------------------------------------

    def make_body(self, truth_seed: int = 0) -> Callable:
        """The function's deployable body (generic ETL shape)."""

        def body(ctx):
            request = ctx.request
            bucket, name = request.input_ref.split("/", 1)
            obj = yield from ctx.read(bucket, name)
            media = obj.payload
            footprint = apply_noise(
                self.footprint_mb(media, ctx.args),
                truth_noise(truth_seed, request.request_id),
            )
            duration = self.transform_time(media, ctx.args)
            yield from ctx.compute(duration, footprint)
            out_size = self.output_size(media, ctx.args)
            out_payload = self.output_payload(media, ctx.args)
            yield from ctx.write(
                request.output_bucket,
                f"{self.name}-{request.request_id}",
                out_payload,
                out_size,
            )

        return body

    def spec(
        self,
        tenant: str = "t0",
        booked_mb: Optional[float] = None,
        truth_seed: int = 0,
    ) -> FunctionSpec:
        return FunctionSpec(
            name=self.name,
            tenant=tenant,
            body=self.make_body(truth_seed),
            booked_memory_mb=booked_mb or self.default_booked_mb,
            input_kind=self.input_kind,
            arg_names=list(self.arg_names),
        )


# ---------------------------------------------------------------------------
# Image functions (ImageMagick/Wand-style).
# ---------------------------------------------------------------------------


class _ImageFunction(FunctionModel):
    input_kind = "image"
    #: Working-set multiplier over the decoded bitmap (subclass tunes).
    base_copies = 2.0
    #: Seconds of work per decoded MB (subclass tunes).
    per_mb_s = 0.004
    fixed_s = 0.012

    def _work_copies(self, media: ImageDescriptor, args: Dict[str, Any]) -> float:
        return self.base_copies

    def footprint_mb(self, media, args, rng=None) -> float:
        decoded = media.decoded_mb
        footprint = self.runtime_base_mb + decoded * self._work_copies(media, args)
        return noisy(footprint, rng)

    def transform_time(self, media, args) -> float:
        return self.fixed_s + media.decoded_mb * self.per_mb_s


class WandBlur(_ImageFunction):
    name = "wand_blur"
    arg_names = ["sigma"]
    fixed_s = 0.015
    arg_choices = interned("sigma", (0.5, 1.0, 2.0, 3.0, 4.5, 6.0))

    def _work_copies(self, media, args):
        # Gaussian kernel buffers grow stepwise with the radius; the
        # step interacts with channel count (Figure 2's "non-trivial"
        # relation to sigma).
        sigma = float(args.get("sigma", 1.0))
        return 2.0 + 0.6 * math.ceil(sigma / 1.5) * (media.channels / 3.0)

    def transform_time(self, media, args):
        sigma = float(args.get("sigma", 1.0))
        return self.fixed_s + media.decoded_mb * (0.004 + 0.002 * sigma)


class WandResize(_ImageFunction):
    name = "wand_resize"
    arg_names = ["scale"]
    arg_choices = interned("scale", (0.25, 0.5, 0.75, 1.0, 1.5, 2.0))

    def _work_copies(self, media, args):
        scale = float(args.get("scale", 1.0))
        # Source bitmap + destination bitmap (+ filter workspace).
        return 1.3 + scale * scale

    def output_size(self, media, args):
        scale = float(args.get("scale", 1.0))
        return max(256, int(media.size * scale * scale))


class WandSepia(_ImageFunction):
    name = "wand_sepia"
    arg_names = ["threshold"]
    base_copies = 1.25  # in-place tone mapping: one copy + LUT

    def sample_args(self, rng):
        return {"threshold": float(rng.uniform(0.5, 1.0))}


class WandRotate(_ImageFunction):
    name = "wand_rotate"
    arg_names = ["degrees"]
    arg_choices = interned("degrees", (15.0, 45.0, 90.0, 180.0, 270.0))

    def _work_copies(self, media, args):
        degrees = float(args.get("degrees", 90.0)) % 180.0
        # Right-angle rotations swap buffers; arbitrary angles need a
        # larger canvas (bounding box growth).
        if degrees in (0.0, 90.0):
            return 2.0
        return 2.9


class WandDenoise(_ImageFunction):
    name = "wand_denoise"
    arg_names = ["strength"]
    per_mb_s = 0.009
    fixed_s = 0.011
    arg_choices = interned("strength", (0.5, 1.0, 2.0, 3.0))

    def _work_copies(self, media, args):
        strength = float(args.get("strength", 1.0))
        return 2.2 + 0.5 * math.floor(strength)

    def transform_time(self, media, args):
        strength = float(args.get("strength", 1.0))
        return self.fixed_s + media.decoded_mb * self.per_mb_s * strength


class WandEdge(_ImageFunction):
    name = "wand_edge"
    arg_names = ["radius"]
    per_mb_s = 0.016
    fixed_s = 0.018
    arg_choices = interned("radius", (1.0, 2.0, 3.0, 5.0))

    def _work_copies(self, media, args):
        radius = float(args.get("radius", 1.0))
        return 2.5 + 0.25 * math.ceil(radius)

    def output_size(self, media, args):
        return max(256, int(media.size * 0.6))  # edge maps compress well


class WandSharpen(_ImageFunction):
    name = "wand_sharpen"
    arg_names = ["sigma"]
    arg_choices = interned("sigma", (0.5, 1.0, 2.0, 4.0))

    def _work_copies(self, media, args):
        sigma = float(args.get("sigma", 1.0))
        return 2.0 + 0.5 * math.ceil(sigma / 2.0)


class WandGrayscale(_ImageFunction):
    name = "wand_grayscale"
    base_copies = 1.4

    def output_size(self, media, args):
        return max(256, int(media.size / max(1, media.channels)))


class WandFlip(_ImageFunction):
    name = "wand_flip"
    base_copies = 2.0
    per_mb_s = 0.002


class WandCrop(_ImageFunction):
    name = "wand_crop"
    arg_names = ["crop_frac"]
    per_mb_s = 0.002
    arg_choices = interned("crop_frac", (0.25, 0.5, 0.75, 0.9))

    def _work_copies(self, media, args):
        frac = float(args.get("crop_frac", 0.5))
        return 1.2 + frac  # source + cropped destination

    def output_size(self, media, args):
        frac = float(args.get("crop_frac", 0.5))
        return max(256, int(media.size * frac))


class WandContrast(_ImageFunction):
    name = "wand_contrast"
    arg_names = ["level"]
    base_copies = 1.5

    def sample_args(self, rng):
        return {"level": float(rng.uniform(-3, 3))}

    def transform_time(self, media, args):
        level = abs(float(args.get("level", 1.0)))
        return self.fixed_s + media.decoded_mb * self.per_mb_s * (1 + 0.3 * level)


class SharpResize(_ImageFunction):
    """The node-sharp resize function from the motivation (Figure 3a)."""

    name = "sharp_resize"
    arg_names = ["target_width"]
    runtime_base_mb = 68.0  # node runtime is leaner than python+wand
    per_mb_s = 0.0015
    fixed_s = 0.004
    arg_choices = interned("target_width", (64.0, 128.0, 256.0, 512.0, 1024.0))

    def _work_copies(self, media, args):
        target = float(args.get("target_width", 256.0))
        out_frac = min(4.0, (target / max(media.width, 1)) ** 2)
        return 1.2 + out_frac

    def output_size(self, media, args):
        target = float(args.get("target_width", 256.0))
        frac = min(4.0, (target / max(media.width, 1)) ** 2)
        return max(256, int(media.size * frac))


class ImgFormatConvert(_ImageFunction):
    name = "img_format_convert"
    arg_names = ["target_format"]
    arg_choices = interned("target_format", media_mod.IMAGE_FORMATS)

    def _work_copies(self, media, args):
        # Decode buffer + re-encode buffer whose size depends on the
        # *target* codec (nominal argument drives memory).
        target = args.get("target_format", "jpeg")
        encode_cost = {"jpeg": 0.4, "png": 1.1, "bmp": 1.6, "webp": 0.5}
        return 1.3 + encode_cost.get(target, 1.0)

    def output_size(self, media, args):
        target = args.get("target_format", "jpeg")
        decoded = media.decoded_mb * MB
        return max(
            256, int(decoded / media_mod.IMAGE_COMPRESSION.get(target, 10.0))
        )


# ---------------------------------------------------------------------------
# Audio functions.
# ---------------------------------------------------------------------------


class _AudioFunction(FunctionModel):
    input_kind = "audio"
    runtime_base_mb = 76.0


class AudioCompress(_AudioFunction):
    name = "audio_compress"
    arg_names = ["bitrate_kbps"]
    arg_choices = interned("bitrate_kbps", (64.0, 96.0, 128.0, 192.0, 320.0))

    def footprint_mb(self, media: AudioDescriptor, args, rng=None):
        decoded = media.decoded_mb
        bitrate = float(args.get("bitrate_kbps", 128.0))
        footprint = (
            self.runtime_base_mb + decoded * 1.3 + 0.04 * bitrate
        )
        return noisy(footprint, rng)

    def transform_time(self, media, args):
        return 0.02 + media.duration_s * 0.015

    def output_size(self, media, args):
        bitrate = float(args.get("bitrate_kbps", 128.0))
        return max(256, int(media.duration_s * bitrate * 1000 / 8))


class AudioNormalize(_AudioFunction):
    name = "audio_normalize"

    def footprint_mb(self, media: AudioDescriptor, args, rng=None):
        # Two-pass: full decoded buffer plus an analysis window.
        footprint = self.runtime_base_mb + media.decoded_mb * 2.1
        return noisy(footprint, rng)

    def transform_time(self, media, args):
        return 0.015 + media.duration_s * 0.01


class SpeechRecognize(_AudioFunction):
    name = "speech_recognize"
    arg_names = ["language"]
    runtime_base_mb = 210.0  # acoustic + language models resident
    default_booked_mb = 1024.0
    arg_choices = interned("language", ("en", "fr", "de", "zh"))

    def footprint_mb(self, media: AudioDescriptor, args, rng=None):
        language = args.get("language", "en")
        model_mb = {"en": 0.0, "fr": 35.0, "de": 40.0, "zh": 110.0}
        footprint = (
            self.runtime_base_mb
            + model_mb.get(language, 50.0)
            + media.decoded_mb * 1.6
        )
        return noisy(footprint, rng)

    def transform_time(self, media, args):
        return 0.2 + media.duration_s * 0.08

    def output_size(self, media, args):
        return max(128, int(media.duration_s * 20))  # transcript text


# ---------------------------------------------------------------------------
# Video functions.
# ---------------------------------------------------------------------------


class _VideoFunction(FunctionModel):
    input_kind = "video"
    runtime_base_mb = 110.0
    default_booked_mb = 1024.0


class VideoGrayscale(_VideoFunction):
    name = "video_grayscale"

    def footprint_mb(self, media: VideoDescriptor, args, rng=None):
        # Decoder pipeline buffers a GOP worth of frames.
        gop = 12 if media.codec == "mpeg2" else 30
        footprint = self.runtime_base_mb + media.frame_mb * gop * 1.4
        return noisy(footprint, rng)

    def transform_time(self, media, args):
        return 0.05 + media.frames * media.frame_mb * 0.0006

    def output_size(self, media, args):
        return max(1024, int(media.size * 0.75))


class VideoTranscode(_VideoFunction):
    name = "video_transcode"
    arg_names = ["target_codec"]
    default_booked_mb = 2048.0
    arg_choices = interned("target_codec", media_mod.VIDEO_CODECS)

    def footprint_mb(self, media: VideoDescriptor, args, rng=None):
        target = args.get("target_codec", "h264")
        lookahead = {"h264": 24, "vp9": 48, "mpeg2": 8}
        frames_buffered = lookahead.get(target, 24) + 12
        footprint = self.runtime_base_mb + media.frame_mb * frames_buffered * 1.5
        return noisy(footprint, rng)

    def transform_time(self, media, args):
        target = args.get("target_codec", "h264")
        speed = {"h264": 0.0012, "vp9": 0.003, "mpeg2": 0.0006}
        return 0.08 + media.frames * media.frame_mb * speed.get(target, 0.0012)

    def output_size(self, media, args):
        target = args.get("target_codec", "h264")
        decoded = media.frames * media.frame_mb * MB
        return max(
            1024, int(decoded / media_mod.VIDEO_COMPRESSION.get(target, 60.0))
        )


class VideoThumbnail(_VideoFunction):
    name = "video_thumbnail"
    arg_names = ["n_thumbs"]
    arg_choices = interned("n_thumbs", (1.0, 4.0, 9.0, 16.0))

    def footprint_mb(self, media: VideoDescriptor, args, rng=None):
        n_thumbs = float(args.get("n_thumbs", 4))
        footprint = (
            self.runtime_base_mb + media.frame_mb * (8 + n_thumbs) * 1.2
        )
        return noisy(footprint, rng)

    def transform_time(self, media, args):
        n_thumbs = float(args.get("n_thumbs", 4))
        return 0.04 + n_thumbs * media.frame_mb * 0.004

    def output_size(self, media, args):
        n_thumbs = float(args.get("n_thumbs", 4))
        return max(512, int(n_thumbs * 24 * KB))


# ---------------------------------------------------------------------------
# Text functions.
# ---------------------------------------------------------------------------


class TextSummarize(FunctionModel):
    name = "text_summarize"
    input_kind = "text"
    arg_names = ["ratio"]
    runtime_base_mb = 92.0

    def sample_args(self, rng):
        return {"ratio": float(rng.uniform(0.05, 0.4))}

    def footprint_mb(self, media: TextDescriptor, args, rng=None):
        # Token graph: ~8x the raw text plus sentence-rank matrices.
        text_mb = media.size / MB
        footprint = self.runtime_base_mb + text_mb * 8.0
        return noisy(footprint, rng)

    def transform_time(self, media, args):
        return 0.02 + media.n_words * 2.2e-6

    def output_size(self, media, args):
        ratio = float(args.get("ratio", 0.2))
        return max(128, int(media.size * ratio))


class WordcountMap(FunctionModel):
    """Word-count mapper; also used standalone as a text function."""

    name = "wordcount_map"
    input_kind = "text"
    runtime_base_mb = 54.0
    default_booked_mb = 256.0

    def footprint_mb(self, media: TextDescriptor, args, rng=None):
        text_mb = media.size / MB
        footprint = self.runtime_base_mb + text_mb * 3.2
        return noisy(footprint, rng)

    def transform_time(self, media, args):
        return 0.01 + media.n_words * 1.1e-6

    def output_size(self, media, args):
        # Distinct-word counts: sublinear in input size.
        return max(128, int(2500 * np.log2(2 + media.n_words)))


ALL_FUNCTIONS: Dict[str, FunctionModel] = {
    model.name: model
    for model in [
        WandBlur(),
        WandResize(),
        WandSepia(),
        WandRotate(),
        WandDenoise(),
        WandEdge(),
        WandSharpen(),
        WandGrayscale(),
        WandFlip(),
        WandCrop(),
        WandContrast(),
        SharpResize(),
        ImgFormatConvert(),
        AudioCompress(),
        AudioNormalize(),
        SpeechRecognize(),
        VideoGrayscale(),
        VideoTranscode(),
        VideoThumbnail(),
        TextSummarize(),
        WordcountMap(),
    ]
}

#: The six single-stage functions shown in Figure 7/9.
FIGURE7_FUNCTIONS = [
    "wand_blur",
    "wand_resize",
    "wand_sepia",
    "wand_rotate",
    "wand_denoise",
    "wand_edge",
]

#: The 19 functions of the paper's single-stage evaluation (§7):
#: every model except the two pipeline-internal helpers.
EVALUATION_FUNCTIONS = [
    name
    for name in ALL_FUNCTIONS
    if name not in ("wordcount_map", "video_thumbnail")
]


def get_function_model(name: str) -> FunctionModel:
    try:
        return ALL_FUNCTIONS[name]
    except KeyError:
        raise KeyError(f"unknown function model: {name}") from None
