#!/usr/bin/env python3
"""Project-invariant linter: mechanically enforces the repo's bespoke
concurrency/determinism contracts that -Wall and clang-tidy cannot see.

Rules (each is a function below; `--self-test` seeds a violation of every rule
in a temp tree and asserts the linter catches it):

  R1 isa-isolation      SIMD intrinsic headers (immintrin.h & friends) may be
                        included only by src/nn/kernels_avx2.cc, and the
                        -mavx2/-mfma flags may appear in CMakeLists.txt only
                        on lines that target that TU (or the compiler-probe
                        line). Anything else silently breaks the runtime
                        dispatch contract: a stray intrinsic in a generic TU
                        executes AVX2 on hosts CPUID said don't have it.

  R2 determinism-sources  src/nn/, src/core/, and src/search/ must not use
                        rand(), std::random_device, or std::unordered_*
                        containers. The data plane's bitwise thread-count/
                        batch-size invariance (threading_test, kernels_test)
                        dies the moment an accumulation iterates a hash
                        container or a nondeterministic source feeds the
                        forward path — and the tuning tier's same-seed ⇒
                        same-SearchCurve contract (search_test, the
                        bench_tuning parity gate) dies the same way if a
                        search driver's dedup map or rng stream is
                        nondeterministic; seeded cdmpp::Rng is the only
                        sanctioned randomness.

  R3 one-forward         Every class under src/nn/ declares at most one
                        member named Forward, and no identifier
                        ForwardInference remains anywhere in src/, tests/,
                        bench/ or examples/. Training and inference share each
                        layer's one Forward(x, ..., Workspace*, Cache*) — a
                        null cache is inference — so there is a single
                        implementation to keep bitwise-consistent and
                        allocation-free (tests/nn_test.cc,
                        tests/dataplane_test.cc); a second forward is how the
                        duplicated paths this rule retired would grow back.

  R4 zero-alloc-fork    ParallelFor chunk bodies must not contain allocation
                        tokens (new, malloc, make_unique/shared, push_back,
                        emplace_back, .resize(, .reserve(). Chunk bodies (the
                        training shards, the optimizer slices) run
                        concurrently on pool workers: an allocation there is
                        both a warm-path heap hit (dataplane_test) and a
                        malloc-lock serialization point. Arena bumps
                        (NewMatrix/NewI16 on a shard's leased arena) are the
                        sanctioned alternative. The rule also scans the
                        fork-join pool itself (src/support/parallel_for.
                        {cc,h}): every *Drain*/*WorkerLoop* function body —
                        the per-chunk claim loop and the worker's
                        wait-join-drain loop every region runs through — and
                        every task-descriptor lambda (the type-erasure
                        trampoline, wait predicates) must be token-free, or
                        the pool would put a heap hit on every region.

  R5 no-intra-op-fork   ParallelFor and ThreadPool may not appear in code
                        under src/nn/, src/serve/ or
                        src/search/. Layers and kernels run on the calling
                        thread, and serve and tune workers run each forward
                        on their own thread: at the predictor's shapes a fork
                        per GEMM, attention block or LayerNorm cost more CPU
                        than it saved and slowed serving. Parallelism lives
                        in the training shards (src/core/predictor.cc), one
                        fork per phase.

Exit status: 0 clean, 1 violations found (printed as path:line: [rule] msg),
2 self-test failure. Run from anywhere; the repo root is located relative to
this file. CI runs both modes and uploads the report artifact.
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INTRINSIC_HEADERS = re.compile(
    r'#\s*include\s*[<"](?:immintrin|x86intrin|avxintrin|avx2intrin|emmintrin|'
    r'xmmintrin|smmintrin|tmmintrin|pmmintrin|nmmintrin|wmmintrin)\.h[>"]')
ISA_ALLOWED_FILE = os.path.join("src", "nn", "kernels_avx2.cc")

DETERMINISM_BANNED = [
    (re.compile(r'\brand\s*\('), "rand() feeds nondeterminism into the data plane; "
                                 "use the seeded cdmpp::Rng"),
    (re.compile(r'\brandom_device\b'), "std::random_device is nondeterministic; "
                                       "use the seeded cdmpp::Rng"),
    (re.compile(r'\bunordered_(map|set|multimap|multiset)\b'),
     "hash-container iteration order is unspecified and would feed accumulation; "
     "use std::map/std::vector (bitwise-invariance contract)"),
]

ALLOC_TOKENS = [
    (re.compile(r'\bnew\b'), "new"),
    (re.compile(r'\b(?:m|c|re)alloc\s*\('), "malloc/calloc/realloc"),
    (re.compile(r'\bmake_(?:unique|shared)\b'), "make_unique/make_shared"),
    (re.compile(r'(?:\.|->)\s*push_back\s*\('), "push_back("),
    (re.compile(r'(?:\.|->)\s*emplace_back\s*\('), "emplace_back("),
    (re.compile(r'(?:\.|->)\s*resize\s*\('), "resize("),
    (re.compile(r'(?:\.|->)\s*reserve\s*\('), "reserve("),
]

FORK_CALL = re.compile(r'\b(ParallelFor)\s*\(')


def strip_comments_and_strings(text):
    """Replaces comment/string contents with spaces, preserving offsets and
    newlines so line numbers stay addressable."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            j = text.find('\n', i)
            j = n if j == -1 else j
            out.append(' ' * (j - i))
            i = j
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i:j + 2]
            out.append(''.join(ch if ch == '\n' else ' ' for ch in chunk))
            i = j + 2
        elif c in '"\'':
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == '\\' else 1
            out.append(quote + ' ' * (j - i - 1) + (quote if j < n else ''))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def line_of(text, pos):
    return text.count('\n', 0, pos) + 1


def match_bracket(text, open_pos, open_ch, close_ch):
    """Index one past the bracket matching text[open_pos]; -1 if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def iter_source_files(root, subdirs, exts=(".cc", ".h", ".cpp")):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


# ---------------------------------------------------------------------------
# R1: ISA isolation.
# ---------------------------------------------------------------------------
def check_isa_isolation(root):
    findings = []
    allowed = ISA_ALLOWED_FILE.replace(os.sep, "/")
    for path in iter_source_files(root, ["src", "tests", "bench", "examples"]):
        rel = relpath(root, path)
        if rel == allowed:
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            for lineno, line in enumerate(f, 1):
                if INTRINSIC_HEADERS.search(line):
                    findings.append((rel, lineno, "isa-isolation",
                                     "SIMD intrinsic header outside %s breaks the "
                                     "runtime-dispatch portability contract" % allowed))
    cmake = os.path.join(root, "CMakeLists.txt")
    if os.path.exists(cmake):
        with open(cmake, encoding="utf-8", errors="replace") as f:
            lines = f.readlines()
        prev = ""
        for lineno, line in enumerate(lines, 1):
            stripped = line.strip()
            if stripped.startswith("#") or stripped.startswith("message("):
                continue  # comments and status messages may mention the flags
            if "-mavx2" in line or "-mfma" in line:
                # A flag line is fine when it (or the continuation's opening
                # line) names the isolated TU, or it is the compiler probe.
                context = prev + line
                if ("kernels_avx2" not in context and
                        "check_cxx_compiler_flag" not in context):
                    findings.append(("CMakeLists.txt", lineno, "isa-isolation",
                                     "-mavx2/-mfma may only be applied to the "
                                     "kernels_avx2.cc TU (or the compiler probe)"))
            if stripped:
                prev = line
    return findings


# ---------------------------------------------------------------------------
# R2: determinism sources.
# ---------------------------------------------------------------------------
def check_determinism_sources(root):
    findings = []
    for path in iter_source_files(root, [os.path.join("src", "nn"),
                                         os.path.join("src", "core"),
                                         os.path.join("src", "search")]):
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.split('\n'), 1):
            for pattern, msg in DETERMINISM_BANNED:
                if pattern.search(line):
                    findings.append((rel, lineno, "determinism-sources", msg))
    return findings


# ---------------------------------------------------------------------------
# R3: one forward per layer.
# ---------------------------------------------------------------------------
CLASS_HEAD = re.compile(r'\b(?:class|struct)\s+(\w+)[^;{()]*\{')
FORWARD_MEMBER = re.compile(r'\bForward\s*\(')
RETIRED_FORWARD = re.compile(r'\bForwardInference\b')


def top_level_text(body):
    """The text of a brace block's own scope: nested brace blocks (member
    function bodies, nested classes) are blanked out."""
    out = []
    depth = 0
    for ch in body:
        if ch == '{':
            depth += 1
            out.append(' ')
        elif ch == '}':
            depth -= 1
            out.append(' ')
        else:
            out.append(ch if depth <= 1 else ' ')
    return ''.join(out)


def check_one_forward(root):
    findings = []
    for path in iter_source_files(root, [os.path.join("src", "nn")]):
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        for m in CLASS_HEAD.finditer(text):
            body_end = match_bracket(text, m.end() - 1, '{', '}')
            if body_end == -1:
                continue
            members = list(FORWARD_MEMBER.finditer(top_level_text(text[m.end() - 1:body_end])))
            if len(members) > 1:
                findings.append((rel, line_of(text, m.end() - 1 + members[1].start()),
                                 "one-forward",
                                 "class %s declares %d members named Forward: a layer "
                                 "has one forward (a null cache is inference)" %
                                 (m.group(1), len(members))))
    for path in iter_source_files(root, ["src", "tests", "bench", "examples"]):
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        for m in RETIRED_FORWARD.finditer(text):
            findings.append((rel, line_of(text, m.start()), "one-forward",
                             "ForwardInference is retired: call the layer's one "
                             "Forward without a cache"))
    return findings


# ---------------------------------------------------------------------------
# R4: no allocation tokens in fork chunk bodies.
# ---------------------------------------------------------------------------
def file_scope_lambdas(text):
    """Maps name -> body text for every `auto name = [...](...) {...}`."""
    lambdas = {}
    for m in re.finditer(r'\bauto\s+(\w+)\s*=\s*\[', text):
        cap_end = match_bracket(text, m.end() - 1, '[', ']')
        if cap_end == -1 or cap_end >= len(text) or text[cap_end] != '(':
            continue
        par_end = match_bracket(text, cap_end, '(', ')')
        if par_end == -1:
            continue
        brace = text.find('{', par_end)
        if brace == -1 or text[par_end:brace].strip():
            continue
        body_end = match_bracket(text, brace, '{', '}')
        if body_end != -1:
            lambdas[m.group(1)] = text[brace:body_end]
    return lambdas


def chunk_bodies_at(text, call_match, lambdas):
    """The chunk body text reachable from one fork call site: the inline
    lambda argument (if any) or the named-lambda final argument, plus the
    bodies of file-scope lambdas invoked from there (transitively)."""
    call_end = match_bracket(text, call_match.end() - 1, '(', ')')
    if call_end == -1:
        return []
    args = text[call_match.end():call_end - 1]
    # Skip the primitive's own definition/declaration (parameter lists).
    if re.search(r'\bint64_t\s+begin\b|&&\s*fn\b|&&\s*panel\b', args):
        return []
    bodies = []
    lb = args.find('[')
    if lb != -1:
        # Inline lambda: brace-matched body after its parameter list.
        abs_lb = call_match.end() + lb
        cap_end = match_bracket(text, abs_lb, '[', ']')
        if cap_end != -1:
            brace = text.find('{', cap_end)
            if brace != -1:
                body_end = match_bracket(text, brace, '{', '}')
                if body_end != -1:
                    bodies.append((brace, text[brace:body_end]))
    else:
        last_arg = args.rsplit(',', 1)[-1].strip()
        if last_arg in lambdas:
            pos = text.find(lambdas[last_arg])
            bodies.append((pos, lambdas[last_arg]))
    # Transitive closure over named lambdas called from a chunk body.
    seen = {name for _, body in bodies for name in ()}
    frontier = list(bodies)
    while frontier:
        _, body = frontier.pop()
        for name, lam_body in lambdas.items():
            if name in seen:
                continue
            if re.search(r'\b%s\s*\(' % re.escape(name), body):
                seen.add(name)
                entry = (text.find(lam_body), lam_body)
                bodies.append(entry)
                frontier.append(entry)
    return bodies


# The pool's own hot paths: the fork-join pool's files, the function-name
# shape of its per-chunk claim loop and its workers' wait-join-drain loop,
# and the lambdas that serve as task descriptors (the ParallelFor
# type-erasure trampoline, wait predicates). Setup/teardown code there may
# allocate (thread spawn); the drain and worker loops and task lambdas run on
# every region and must not.
SCHEDULER_FILES = ("src/support/parallel_for.cc", "src/support/parallel_for.h")
SCHEDULER_FN = re.compile(r'\b\w*(?:Drain|WorkerLoop)\w*\s*\(')


def all_lambda_bodies(text):
    """Yields (body_pos, body) for every lambda literal in `text`, with or
    without a parameter list. Array subscripts and attribute brackets are
    rejected because neither `(` params + `{` nor a bare `{` follows them."""
    for m in re.finditer(r'\[', text):
        cap_end = match_bracket(text, m.start(), '[', ']')
        if cap_end == -1:
            continue
        rest = re.match(r'\s*', text[cap_end:])
        pos = cap_end + rest.end()
        if pos < len(text) and text[pos] == '(':
            par_end = match_bracket(text, pos, '(', ')')
            if par_end == -1:
                continue
            between = re.match(r'\s*(?:mutable|noexcept)?\s*', text[par_end:])
            pos = par_end + between.end()
        if pos < len(text) and text[pos] == '{':
            body_end = match_bracket(text, pos, '{', '}')
            if body_end != -1:
                yield pos, text[pos:body_end]


def scheduler_drain_findings(root):
    """R4's widened scope: alloc tokens inside the pool's *Drain*/*WorkerLoop*
    function bodies or inside any task-descriptor lambda in the pool's
    files."""
    findings = []
    for rel in SCHEDULER_FILES:
        path = os.path.join(root, rel.replace("/", os.sep))
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        regions = []  # (pos, body, what)
        for m in SCHEDULER_FN.finditer(text):
            params_end = match_bracket(text, m.end() - 1, '(', ')')
            if params_end == -1:
                continue
            tail = re.match(r'\s*(?:const|noexcept|\s)*', text[params_end:])
            brace = params_end + tail.end()
            if brace >= len(text) or text[brace] != '{':
                continue  # a call or declaration, not the definition
            body_end = match_bracket(text, brace, '{', '}')
            if body_end != -1:
                regions.append((brace, text[brace:body_end],
                                "drain/worker-loop function"))
        for pos, body in all_lambda_bodies(text):
            regions.append((pos, body, "task-descriptor lambda"))
        for pos, body, what in regions:
            for pattern, token in ALLOC_TOKENS:
                tok = pattern.search(body)
                if tok:
                    findings.append(
                        (rel, line_of(text, pos + tok.start()), "zero-alloc-fork",
                         "allocation token `%s` inside a fork-join pool %s: "
                         "the drain/worker path runs on every region and "
                         "must be heap-free" % (token, what)))
    return findings


def check_zero_alloc_fork(root):
    findings = []
    for path in iter_source_files(root, ["src"], exts=(".cc",)):
        rel = relpath(root, path)
        if rel in SCHEDULER_FILES:
            continue  # the primitive itself is scanned below, not as call sites
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        lambdas = file_scope_lambdas(text)
        for call in FORK_CALL.finditer(text):
            for body_pos, body in chunk_bodies_at(text, call, lambdas):
                for pattern, token in ALLOC_TOKENS:
                    tok = pattern.search(body)
                    if tok:
                        findings.append(
                            (rel, line_of(text, body_pos + tok.start()),
                             "zero-alloc-fork",
                             "allocation token `%s` inside a %s chunk body: "
                             "chunk bodies must be heap-free (lease arena "
                             "scratch pre-fork instead)" % (token, call.group(1))))
    findings.extend(scheduler_drain_findings(root))
    return findings


# ---------------------------------------------------------------------------
# R5: no intra-op forks in layers, kernels, serving or search.
# ---------------------------------------------------------------------------
NO_FORK_DIRS = ("nn", "serve", "search")
INTRA_OP_FORK = re.compile(r'\b(ParallelFor|ThreadPool)\b')


def check_no_intra_op_fork(root):
    findings = []
    for path in iter_source_files(root, [os.path.join("src", d) for d in NO_FORK_DIRS]):
        rel = relpath(root, path)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        for m in INTRA_OP_FORK.finditer(text):
            findings.append((rel, line_of(text, m.start()), "no-intra-op-fork",
                             "%s under src/%s/: layers, kernels, serving and search "
                             "run on the calling thread; fork once per training "
                             "phase in src/core/ instead" %
                             (m.group(1), rel.split("/")[1])))
    return findings


ALL_RULES = [
    ("isa-isolation", check_isa_isolation),
    ("determinism-sources", check_determinism_sources),
    ("one-forward", check_one_forward),
    ("zero-alloc-fork", check_zero_alloc_fork),
    ("no-intra-op-fork", check_no_intra_op_fork),
]


def run_all(root):
    findings = []
    for _, rule in ALL_RULES:
        findings.extend(rule(root))
    return findings


# ---------------------------------------------------------------------------
# Self-test: seed violations of every rule in a temp tree (one per covered
# scope where a rule spans several directories); every seed must fire
# individually, and every rule must stay quiet on a minimal clean tree.
# ---------------------------------------------------------------------------
SEEDED_VIOLATIONS = {
    "isa-isolation": [("src/nn/bad_simd.cc", "#include <immintrin.h>\n")],
    "determinism-sources": [
        ("src/nn/bad_rand.cc",
         "#include <unordered_map>\n"
         "float Sum() {\n"
         "  std::unordered_map<int, float> acc;\n"
         "  float s = static_cast<float>(rand());\n"
         "  for (const auto& kv : acc) s += kv.second;\n"
         "  return s;\n"
         "}\n"),
        # The widened scope: a search driver whose dedup/randomness would
        # break the same-seed => same-SearchCurve contract.
        ("src/search/bad_dedup.cc",
         "#include <random>\n"
         "#include <unordered_map>\n"
         "size_t Dedup(const std::vector<uint64_t>& keys) {\n"
         "  std::random_device rd;\n"
         "  std::unordered_map<uint64_t, size_t> slots;\n"
         "  for (uint64_t k : keys) slots.emplace(k, slots.size() + rd());\n"
         "  return slots.size();\n"
         "}\n"),
    ],
    "one-forward": [
        # A layer growing a second forward next to its cache-taking one.
        ("src/nn/bad_layer.h",
         "class Foo : public Module {\n"
         " public:\n"
         "  struct Cache { const Matrix* x = nullptr; };\n"
         "  Matrix* Forward(const Matrix& x, Workspace* ws, Cache* cache = nullptr) const;\n"
         "  Matrix Forward(const Matrix& x);\n"
         "};\n"),
        # The retired name coming back, at a call site outside src/nn/.
        ("tests/bad_caller.cc",
         "void Use(const Foo& foo, const Matrix& x, Workspace* ws) {\n"
         "  foo.ForwardInference(x, ws);\n"
         "}\n"),
    ],
    "zero-alloc-fork": [
        ("src/core/bad_fork.cc",
         "void Bar(std::vector<float>* v) {\n"
         "  ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {\n"
         "    for (int64_t i = b; i < e; ++i) v->push_back(0.0f);\n"
         "  });\n"
         "}\n"),
        # The widened scope, leg 1: an allocation smuggled into the fork-join
        # pool's per-chunk drain loop.
        ("src/support/parallel_for.cc",
         "void ThreadPool::Impl::Drain() {\n"
         "  for (;;) {\n"
         "    claimed.push_back(next.fetch_add(grain));\n"
         "    if (claimed.back() >= end) return;\n"
         "  }\n"
         "}\n"),
        # The widened scope, leg 2: a task-descriptor lambda (the kind the
        # type-erasure trampoline is) that allocates per invocation.
        ("src/support/parallel_for.h",
         "inline void SubmitChunk(void* ctx) {\n"
         "  auto task = [](void* c, int64_t b, int64_t e) {\n"
         "    static_cast<std::vector<float>*>(c)->resize(static_cast<size_t>(e - b));\n"
         "  };\n"
         "  task(ctx, 0, 8);\n"
         "}\n"),
    ],
    "no-intra-op-fork": [
        # A layer forking its rows again.
        ("src/nn/bad_rows.cc",
         "void Rows(Matrix* y) {\n"
         "  if (y->rows() > 64) {\n"
         "    ParallelFor(0, y->rows(), 8, [&](int64_t, int64_t) {});\n"
         "  }\n"
         "}\n"),
        # A serve worker forking its forward.
        ("src/serve/bad_worker.cc",
         "void Work(ThreadPool* pool) {\n"
         "  pool->ParallelFor(0, 4, 1, [](int64_t, int64_t) {});\n"
         "}\n"),
        # A search driver forking its candidates.
        ("src/search/bad_search.cc",
         "int Threads() { return ThreadPool::Global().num_threads(); }\n"),
    ],
}

CLEAN_FILES = {
    "src/nn/good.h":
        "class Foo : public Module {\n"
        " public:\n"
        "  struct Cache {\n"
        "    const Matrix* x = nullptr;\n"
        "  };\n"
        "  Matrix* Forward(const Matrix& x, Workspace* ws, Cache* cache = nullptr) const;\n"
        "  Matrix* ForwardPreQuantized(const Matrix& x, Workspace* ws) const;\n"
        "  Matrix Backward(const Cache& cache, const Matrix& dy);\n"
        "};\n",
    "src/nn/good.cc":
        "// Layers run on the calling thread; ParallelFor lives in src/core/.\n"
        "Matrix* Foo::Forward(const Matrix& x, Workspace* ws, Cache* cache) const {\n"
        "  Matrix* y = ws->NewMatrix(x.rows(), x.cols());\n"
        "  if (cache != nullptr) {\n"
        "    cache->x = &x;\n"
        "  }\n"
        "  return y;\n"
        "}\n",
    "src/core/good.cc":
        "void Step(Shards* shards, int count) {\n"
        "  auto run = [&](int64_t b, int64_t e) {\n"
        "    for (int64_t s = b; s < e; ++s) shards->Run(s);\n"
        "  };\n"
        "  ThreadPool::Global().ParallelFor(0, count, 1, run);\n"
        "}\n",
    "CMakeLists.txt":
        'check_cxx_compiler_flag("-mavx2" HAS_MAVX2)\n'
        "set_source_files_properties(src/nn/kernels_avx2.cc PROPERTIES "
        'COMPILE_OPTIONS "-mavx2;-mfma")\n',
}


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="lint_invariants_selftest_") as tmp:
        for rel, content in CLEAN_FILES.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        clean = run_all(tmp)
        if clean:
            failures.append("clean tree produced findings: %r" % (clean,))
        seeded = 0
        for rule_name, seeds in SEEDED_VIOLATIONS.items():
            for rel, content in seeds:
                seeded += 1
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(content)
                found = [f4 for f4 in run_all(tmp)
                         if f4[2] == rule_name and f4[0] == rel]
                if not found:
                    failures.append("seeded %s violation in %s was NOT detected" %
                                    (rule_name, rel))
                os.remove(path)
    if failures:
        for msg in failures:
            print("SELF-TEST FAIL: %s" % msg, file=sys.stderr)
        return 2
    print("self-test: %d seeded violations across %d rules all fire, "
          "clean tree passes" % (seeded, len(ALL_RULES)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to lint (default: this repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed a violation of each rule and assert detection")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    findings = run_all(args.root)
    for rel, lineno, rule, msg in sorted(findings):
        print("%s:%d: [%s] %s" % (rel, lineno, rule, msg))
    if findings:
        print("%d invariant violation(s)" % len(findings), file=sys.stderr)
        return 1
    print("lint_invariants: all %d rules clean" % len(ALL_RULES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
