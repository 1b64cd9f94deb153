"""Workload substrate: synthetic functions, pipelines and load injection.

The paper evaluates OFC with 19 multimedia single-stage functions and
four multi-stage applications (MapReduce word count, THIS, IMAD,
ServerlessBench Image Processing), driven by the FaaSLoad injector.
None of the real binaries (ImageMagick/Wand, sharp, ffmpeg, …) can run
here, so each function is modelled by a :class:`FunctionModel` whose
*hidden* memory footprint and transform time are non-trivial functions
of the media's metadata and the function-specific arguments — shaped
after the paper's own Figure 2 (no precise correlation with byte size
or any single argument alone).

One load engine (:mod:`repro.workloads.tenants`) drives two populations,
synthesized Zipf/Pareto tenants and FaaSLoad's fixed, profiled ones, and
folds each landed record into per-tenant aggregates instead of keeping it.
"""

from repro import lazy_exports

#: Public name -> the module that defines it, imported on first access.
_EXPORTS = {
    "ALL_FUNCTIONS": ".functions",
    "ALL_PIPELINES": ".pipelines",
    "AudioDescriptor": ".media",
    "FIGURE7_FUNCTIONS": ".functions",
    "FaaSLoad": ".faasload",
    "FunctionModel": ".functions",
    "ImageDescriptor": ".media",
    "MediaCorpus": ".media",
    "PipelineApp": ".pipelines",
    "TenantProfile": ".faasload",
    "TenantSpec": ".faasload",
    "TextDescriptor": ".media",
    "VideoDescriptor": ".media",
    "get_function_model": ".functions",
    "get_pipeline_app": ".pipelines",
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
