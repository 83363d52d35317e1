"""Unit tests for the static analysis passes (repro.staticcheck)."""

import json

from repro.cudac import compile_cuda
from repro.ptx import CFG, parse_ptx
from repro.staticcheck import (
    Finding,
    Privacy,
    SymbolicEvaluator,
    analyze_taint,
    build_def_use,
    classify_site_privacy,
    collect_access_sites,
    prune_private_sites,
    render_json,
    render_text,
    run_lint,
)
from repro.staticcheck.addresses import _TID_X
from repro.staticcheck.guards import GuardAnalysis, interval_of
from repro.staticcheck.lint import KernelContext
from repro.staticcheck.taint import CTAID, LANE, MEM, TID

HEADER = ".version 4.3\n.target sm_35\n.address_size 64\n"


def kernel_with(body: str, params: str = ".param .u64 data"):
    source = (
        HEADER
        + f".visible .entry k({params})\n{{\n"
        + ".reg .u32 %r<16>;\n.reg .u64 %rd<16>;\n.reg .pred %p<8>;\n"
        + body
        + "\n}\n"
    )
    return parse_ptx(source)


def compiled(source: str):
    """Compile mini CUDA-C and reparse so lines are real PTX lines."""
    return parse_ptx(str(compile_cuda(source)))


# ----------------------------------------------------------------------
# dataflow
# ----------------------------------------------------------------------
def test_def_use_chains():
    module = kernel_with(
        "mov.u32 %r1, 1;\n"  # 0: def r1
        "add.u32 %r2, %r1, 2;\n"  # 1: def r2, use r1
        "st.global.u32 [%rd1], %r2;\n"  # 2: use rd1, r2
        "ret;"
    )
    chains = build_def_use(module.kernels[0])
    assert chains.defs["%r1"] == [0]
    assert chains.defs["%r2"] == [1]
    assert chains.uses["%r1"] == [1]
    assert chains.uses["%r2"] == [2]
    assert "%r2" not in chains.defs.get("%rd1", [])
    assert chains.unique_def("%r1") == 0
    assert chains.unique_def("%r9") == -1


def test_store_defines_nothing():
    module = kernel_with("st.global.u32 [%rd1], %r1;\nret;")
    chains = build_def_use(module.kernels[0])
    assert "%rd1" not in chains.defs
    assert "%r1" not in chains.defs


# ----------------------------------------------------------------------
# taint
# ----------------------------------------------------------------------
def test_tid_taint_propagates_through_arithmetic():
    module = kernel_with(
        "mov.u32 %r1, %tid.x;\n"
        "shl.b32 %r2, %r1, 2;\n"
        "mov.u32 %r3, %ctaid.x;\n"
        "add.u32 %r4, %r2, %r3;\n"
        "ret;"
    )
    taint = analyze_taint(module.kernels[0])
    assert taint.taint_of("%r2") == frozenset({TID})
    assert taint.taint_of("%r3") == frozenset({CTAID})
    assert taint.taint_of("%r4") == frozenset({TID, CTAID})


def test_param_load_is_uniform_but_global_load_is_not():
    module = kernel_with(
        "ld.param.u64 %rd1, [data];\n"
        "ld.global.u32 %r1, [%rd1];\n"
        "ret;"
    )
    taint = analyze_taint(module.kernels[0])
    assert taint.taint_of("%rd1") == frozenset()
    assert taint.taint_of("%r1") == frozenset({MEM})


def test_branch_divergence_classification():
    module = kernel_with(
        "mov.u32 %r1, %tid.x;\n"  # 0
        "setp.eq.u32 %p1, %r1, 0;\n"  # 1
        "@%p1 bra $L_a;\n"  # 2: divergent
        "$L_a:\n"
        "mov.u32 %r2, %ctaid.x;\n"  # 4
        "setp.eq.u32 %p2, %r2, 0;\n"  # 5
        "@%p2 bra $L_b;\n"  # 6: block-varying only
        "$L_b:\n"
        "ret;"
    )
    taint = analyze_taint(module.kernels[0])
    assert taint.is_divergent(2)
    assert taint.is_block_varying(2)
    assert not taint.is_divergent(6)
    assert taint.is_block_varying(6)


def test_laneid_counts_as_divergent():
    module = kernel_with(
        "mov.u32 %r1, %laneid;\n"
        "setp.eq.u32 %p1, %r1, 0;\n"
        "@%p1 bra $L;\n"
        "$L:\nret;"
    )
    taint = analyze_taint(module.kernels[0])
    assert taint.taint_of("%r1") == frozenset({LANE})
    assert taint.is_divergent(2)


# ----------------------------------------------------------------------
# symbolic addresses / privacy
# ----------------------------------------------------------------------
def test_per_thread_global_slot_is_thread_private():
    module = compiled(
        """
        __global__ void k(int* data) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            data[gid] = gid;
        }
        """
    )
    kernel = module.kernels[0]
    evaluator = SymbolicEvaluator(kernel, module, build_def_use(kernel))
    from repro.instrument.inference import classify_kernel

    sites = collect_access_sites(kernel, module, evaluator, classify_kernel(kernel))
    stores = [s for s in sites if s.kind == "store"]
    assert stores and all(s.privacy is Privacy.THREAD_PRIVATE for s in stores)


def test_uniform_address_is_block_shared():
    module = compiled(
        """
        __global__ void k(int* data) {
            data[0] = 7;
        }
        """
    )
    kernel = module.kernels[0]
    evaluator = SymbolicEvaluator(kernel, module, build_def_use(kernel))
    from repro.instrument.inference import classify_kernel

    sites = collect_access_sites(kernel, module, evaluator, classify_kernel(kernel))
    stores = [s for s in sites if s.kind == "store"]
    assert stores and stores[0].privacy is Privacy.BLOCK_SHARED
    assert stores[0].offset == {}


def test_shared_stride_narrower_than_width_is_not_private():
    # s[tid] with 4-byte elements is private; a 2-byte stride on a
    # 4-byte access would overlap neighbours.
    assert classify_site_privacy("shared", {_TID_X: 4}, 4) is Privacy.THREAD_PRIVATE
    assert classify_site_privacy("shared", {_TID_X: 2}, 4) is not Privacy.THREAD_PRIVATE


def test_unknown_offset_is_unknown_privacy():
    assert classify_site_privacy("global", None, 4) is Privacy.UNKNOWN


def test_prune_private_sites_only_returns_private_plain_accesses():
    module = compiled(
        """
        __global__ void k(int* data, int* out) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            data[gid] = data[gid] + 1;
            out[0] = 7;
        }
        """
    )
    kernel = module.kernels[0]
    pruned = prune_private_sites(kernel, module)
    assert pruned  # the data[gid] load and store
    from repro.instrument.inference import classify_kernel

    evaluator = SymbolicEvaluator(kernel, module, build_def_use(kernel))
    sites = {
        s.index: s
        for s in collect_access_sites(
            kernel, module, evaluator, classify_kernel(kernel)
        )
    }
    for index in pruned:
        assert sites[index].privacy is Privacy.THREAD_PRIVATE
    # The uniform out[0] store must not be pruned.
    uniform = [i for i, s in sites.items() if s.offset == {} and s.kind == "store"]
    assert uniform and all(i not in pruned for i in uniform)


def test_call_disables_pruning():
    module = kernel_with(
        "mov.u32 %r1, %tid.x;\n"
        "mul.wide.u32 %rd2, %r1, 4;\n"
        "ld.param.u64 %rd1, [data];\n"
        "add.u64 %rd3, %rd1, %rd2;\n"
        "call helper;\n"
        "st.global.u32 [%rd3], %r1;\n"
        "ret;"
    )
    assert prune_private_sites(module.kernels[0], module) == set()


# ----------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------
def test_interval_reasoning_separates_disjoint_guarded_ranges():
    module = compiled(
        """
        __global__ void k(int* data) {
            __shared__ int s[256];
            if (threadIdx.x < 8) {
                s[threadIdx.x] = 1;
            } else {
                s[threadIdx.x + 32] = 2;
            }
            data[0] = s[0];
        }
        """
    )
    kernel = module.kernels[0]
    ctx = KernelContext(kernel, module)
    stores = [s for s in ctx.sites if s.kind == "store" and s.space == "shared"]
    assert len(stores) == 2
    a, b = stores
    # then-arm covers [0,7]; else-arm covers [40, 287]: disjoint.
    ia = interval_of(a.offset, ctx.guards.constraints_for(a.index))
    ib = interval_of(b.offset, ctx.guards.constraints_for(b.index))
    assert ia is not None and ib is not None
    assert not ctx.may_conflict(a, b)


def test_sibling_arm_detection():
    module = kernel_with(
        "mov.u32 %r1, %tid.x;\n"  # 0
        "setp.eq.u32 %p1, %r1, 0;\n"  # 1
        "@%p1 bra $L_else;\n"  # 2
        "mov.u32 %r2, 1;\n"  # 3 (fallthrough arm)
        "bra.uni $L_end;\n"  # 4
        "$L_else:\n"  # 5
        "mov.u32 %r2, 2;\n"  # 6 (target arm)
        "$L_end:\n"  # 7
        "ret;"
    )
    kernel = module.kernels[0]
    evaluator = SymbolicEvaluator(kernel, module, build_def_use(kernel))
    guards = GuardAnalysis(kernel, CFG(kernel), evaluator)
    sibling = guards.sibling_branch(3, 6)
    assert sibling is not None and sibling.index == 2
    assert guards.sibling_branch(3, 3) is None


# ----------------------------------------------------------------------
# lint rules (distilled single-defect kernels)
# ----------------------------------------------------------------------
def _rules(module):
    return sorted({f.rule for f in run_lint(module)})


def test_lint_clean_kernel_is_clean():
    module = compiled(
        """
        __global__ void k(int* data) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            data[gid] = gid;
        }
        """
    )
    assert _rules(module) == []


def test_lint_barrier_divergence_fires_with_lines():
    module = compiled(
        """
        __global__ void k(int* data) {
            if (threadIdx.x == 0) {
                __syncthreads();
            }
            data[0] = 1;
        }
        """
    )
    findings = [f for f in run_lint(module) if f.rule == "barrier-divergence"]
    assert len(findings) == 1
    text = str(module).splitlines()
    assert "bar.sync" in text[findings[0].line - 1]
    # The related line is the divergent branch.
    assert findings[0].related_lines
    assert "bra" in text[findings[0].related_lines[0] - 1]


def test_lint_shared_race_fires():
    module = compiled(
        """
        __global__ void k(int* out) {
            __shared__ int s[64];
            s[threadIdx.x] = threadIdx.x;
            if (threadIdx.x < 63) {
                out[threadIdx.x] = s[threadIdx.x + 1];
            }
        }
        """
    )
    assert "shared-race" in _rules(module)


def test_lint_barrier_suppresses_shared_race():
    module = compiled(
        """
        __global__ void k(int* out) {
            __shared__ int s[64];
            s[threadIdx.x] = threadIdx.x;
            __syncthreads();
            if (threadIdx.x < 63) {
                out[threadIdx.x] = s[threadIdx.x + 1];
            }
        }
        """
    )
    assert "shared-race" not in _rules(module)


def test_lint_same_block_pair_is_a_documented_miss():
    # Both sites of the conflicting pair sit in one basic block; the
    # lint deliberately skips such pairs (same-warp lockstep runs them
    # in program order, and flagging them would also flag every correct
    # in-block reduction step).  docs/static-analysis.md documents this.
    module = compiled(
        """
        __global__ void k(int* out) {
            __shared__ int s[64];
            s[threadIdx.x] = threadIdx.x;
            out[threadIdx.x] = s[threadIdx.x + 1];
        }
        """
    )
    assert _rules(module) == []


def test_lint_divergent_store_fires():
    module = compiled(
        """
        __global__ void k(int* out) {
            out[0] = threadIdx.x;
        }
        """
    )
    assert "divergent-store" in _rules(module)


def test_lint_atomic_mixed_fires():
    module = compiled(
        """
        __global__ void k(int* data, int* out) {
            atomicAdd(&data[0], 1);
            if (threadIdx.x == 0) {
                out[0] = data[0];
            }
        }
        """
    )
    assert "atomic-mixed" in _rules(module)


def test_findings_are_sorted_and_deduped():
    module = compiled(
        """
        __global__ void k(int* out) {
            __shared__ int s[64];
            s[threadIdx.x] = threadIdx.x;
            out[threadIdx.x] = s[threadIdx.x + 1];
        }
        """
    )
    findings = run_lint(module)
    keys = [(f.kernel, f.line, f.rule, f.related_lines) for f in findings]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def test_render_text_empty_and_nonempty():
    assert "no findings" in render_text([], source_name="x.cu")
    finding = Finding(
        rule="shared-race",
        severity="error",
        kernel="k",
        line=12,
        message="boom",
        related_lines=(20,),
    )
    text = render_text([finding], source_name="x.cu")
    assert "x.cu:12" in text
    assert "[shared-race]" in text
    assert "line 20" in text
    assert "1 error(s)" in text


def test_render_json_schema():
    finding = Finding(
        rule="global-race", severity="error", kernel="k", line=3, message="m"
    )
    payload = json.loads(render_json([finding], source_name="y.ptx"))
    assert payload["version"] == 1
    assert payload["count"] == 1
    assert payload["errors"] == 1
    assert payload["warnings"] == 0
    assert payload["source"] == "y.ptx"
    entry = payload["findings"][0]
    assert set(entry) == {
        "rule", "severity", "kernel", "line", "message", "related_lines",
    }
