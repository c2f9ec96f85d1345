#!/usr/bin/env python3
"""Export lint: every exported value must have a caller outside test/.

Lists each `val` declared in lib/*/*.mli that no source file in lib/,
bin/, bench/, examples/ or rfssbench/ names, other than its own module's
.ml, and compares that list with the committed allowlist
(test/lint/exports.allow). The allowlist may only shrink: the lint fails
on an unused export that is not listed, on a listed entry that is no
longer an unused export, and on an entry whose reason does not start
with one of the tags `seam:`, `oracle:`, `fixture:` or `roadmap item N:`.

A value `v` of module `M` counts as called from a file when the file
names `M.v`, `A.v` for a local alias `module A = ... M`, or a bare `v`
after `open M`, `let open M in` or `M.( ... )`. A library's main module
that does `include M` (Engine includes Backend) and an interface that is
`include module type of struct include M end` (an interface re-exporting
another module's) are aliases of M everywhere. The match is textual and errs towards "called".

Usage: python3 test/lint/export_lint.py [--root DIR]
Prints every mismatch and exits 1 when there is any, 0 otherwise.
"""

import argparse
import glob
import os
import re
import sys

CALLER_DIRS = ("lib", "bin", "bench", "examples", "rfssbench")
IDENT = r"[a-z_][A-Za-z0-9_']*"
CHAR_LIT = re.compile(r"'(?:[^\\']|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")
# Why an export no program calls may stay: it is a test seam, a test
# oracle, a test-input fixture, or the base of an open ROADMAP item.
REASON_TAG = re.compile(r"(seam|oracle|fixture|roadmap item [0-9]+):\s*\S")


def strip(src):
    """Source text with comments, strings and char literals blanked."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth > 0:
            if src.startswith("*)", i):
                depth -= 1
                i += 2
                continue
            if c == '"':  # strings inside comments are lexed too
                i = skip_string(src, i)
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        if c == '"':
            j = skip_string(src, i)
            out.append(" " * (j - i))
            i = j
            continue
        if c == "{":
            m = QUOTED_OPEN.match(src, i)
            if m:
                close = "|" + m.group(1) + "}"
                j = src.find(close, m.end())
                j = n if j < 0 else j + len(close)
                out.append(" " * (j - i))
                i = j
                continue
        if c == "'" and not (i > 0 and (src[i - 1].isalnum() or src[i - 1] == "_")):
            m = CHAR_LIT.match(src, i)
            if m:
                out.append(" " * (m.end() - i))
                i = m.end()
                continue
        out.append(c)
        i += 1
    return "".join(out)


def skip_string(src, i):
    i += 1
    while i < len(src) and src[i] != '"':
        i += 2 if src[i] == "\\" else 1
    return i + 1


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[:1].upper() + base[1:]


def exports(mli_text):
    """(qualifier, value) for every `val` of an interface; nested
    `module X : sig ... end` values are qualified by X."""
    result = []
    stack = []  # module name for `module X : sig`, None for other sigs
    tokens = re.finditer(
        r"\bmodule\s+([A-Z]\w*)\s*:\s*sig\b|\bsig\b|\bend\b|\bval\s+(" + IDENT + ")",
        mli_text,
    )
    for t in tokens:
        text = t.group(0)
        if t.group(1):
            stack.append(t.group(1))
        elif text == "sig":
            stack.append(None)
        elif text == "end":
            if stack:
                stack.pop()
        elif None not in stack:
            result.append((".".join(stack), t.group(2)))
    return result


def unused_exports(root, caller_dirs=CALLER_DIRS):
    """Qualified names of the lib/*/*.mli values no file under
    [caller_dirs] calls, other than the module's own .ml."""
    sources = {}
    for d in ("lib",) + tuple(caller_dirs):
        for p in glob.glob(os.path.join(root, d, "**", "*.ml*"), recursive=True):
            if p.endswith((".ml", ".mli")) and "/_build/" not in p:
                with open(p, encoding="utf-8") as f:
                    sources[os.path.relpath(p, root)] = strip(f.read())

    # Global aliases: names under which a module's values are reachable.
    names = {}
    for rel in sources:
        if rel.startswith("lib/"):
            names.setdefault(module_name(rel), {module_name(rel)})
    for rel, text in sources.items():
        if not rel.startswith("lib/"):
            continue
        for m in re.finditer(r"^include\s+(?:[A-Z]\w*\.)*([A-Z]\w*)\s*$", text, re.M):
            if m.group(1) in names:
                names[m.group(1)].add(module_name(rel))
    # Interface aliases chain through their target module's names.
    for target in list(names):
        for alias in list(names[target]):
            if alias != target and alias in names:
                names[target] |= names[alias]

    def resolve(path):
        last = path.split(".")[-1]
        return {t for t, ns in names.items() if last in ns}

    def reaches(text):
        """Per module, the names that qualify its values in [text]
        (global and local aliases), and the modules [text] opens."""
        qual, opened = {t: set(ns) for t, ns in names.items()}, set()
        for m in re.finditer(r"\bmodule\s+([A-Z]\w*)\s*=\s*((?:[A-Z]\w*\.)*[A-Z]\w*)", text):
            for t in resolve(m.group(2)):
                qual[t].add(m.group(1))
        for m in re.finditer(r"\bopen!?\s+((?:[A-Z]\w*\.)*[A-Z]\w*)", text):
            opened |= resolve(m.group(1))
        for m in re.finditer(r"((?:[A-Z]\w*\.)*[A-Z]\w*)\.\(", text):
            opened |= resolve(m.group(1))
        return qual, opened

    callers = {
        rel: (text, set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", text)), reaches(text))
        for rel, text in sources.items()
        if rel.endswith(".ml") and rel.split("/")[0] in caller_dirs
    }

    unused = []
    for rel in sorted(sources):
        if not (rel.startswith("lib/") and rel.endswith(".mli")):
            continue
        mod = module_name(rel)
        own = rel[:-1]
        for qual, v in exports(sources[rel]):
            owner = qual.split(".")[-1] if qual else mod
            called = False
            for caller, (text, words, (qmap, opened)) in callers.items():
                if caller == own or v not in words:
                    continue
                # a nested module's value is qualified by its own name
                prefixes = {owner} if qual else qmap[mod]
                pat = r"\b(?:" + "|".join(sorted(prefixes)) + r")\s*\.\s*" + re.escape(v) + r"\b"
                if mod in opened or owner in opened or re.search(pat, text):
                    called = True
                    break
            if not called:
                unused.append(".".join(x for x in (mod, qual, v) if x))
    return unused


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=".")
    root = ap.parse_args().root
    allow_path = os.path.join(root, "test", "lint", "exports.allow")
    unused = unused_exports(root)

    allow, problems = set(), []
    with open(allow_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition(" ")
            if not REASON_TAG.match(reason.strip()):
                problems.append(f"untagged allowlist entry: {name} ({allow_path}:{lineno}: "
                                "the reason must start with seam:, oracle:, fixture: "
                                "or roadmap item N:)")
            allow.add(name)

    for name in unused:
        if name not in allow:
            problems.append(f"unused export: {name} (no caller outside test/; "
                            "delete it, drop it from the .mli or move it into test/)")
    for name in sorted(allow - set(unused)):
        problems.append(f"stale allowlist entry: {name} (it has a caller or is gone; "
                        "remove the line)")

    for p in problems:
        print(p)
    print(f"export lint: {len(unused)} exports without a non-test caller, "
          f"{len(allow)} allowlisted, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
