#!/usr/bin/env python3
"""Find public functions that no non-test code calls.

rustc's `dead_code` lint cannot see an unused `pub fn` of a library
crate: for all rustc knows, another crate calls it. This script makes
the lint see them. On a temporary copy of the repository it

1. demotes every `pub fn` / `pub const fn` in `crates/*/src` to
   `pub(crate)`;
2. builds the workspace's libraries, binaries, examples and benches,
   and the benchmark harness under `perfbench/` (its own workspace),
   and restores `pub` on every function the build reports as private
   (E0603 / E0624 name the definition, E0364 / E0365 a re-export of
   it), repeating until both build;
3. collects the functions rustc then reports as never used.

Those functions have no caller outside tests. Each one must be named in
`.github/dead-pub-api.allow`, one `Type::name — reason` per line
(`module::name` for a free function); the script fails on any other,
and on any allowlist entry that is no longer dead.

Run it from anywhere: `python3 .github/scripts/dead_pub_api.py`. The
checkout is never modified.
"""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ALLOWLIST = ROOT / ".github" / "dead-pub-api.allow"

PUB_FN = re.compile(r"^(\s*)pub (?=(?:const )?fn (\w+))")
IMPL = re.compile(r"^(\s*)impl\b(.*)")
WORKSPACE_CHECK = ["cargo", "check", "--workspace", "--lib", "--bins", "--examples", "--benches"]
PERFBENCH_CHECK = ["cargo", "check", "--offline", "--manifest-path", "perfbench/Cargo.toml"]


def copy_tree(dst):
    ignore = shutil.ignore_patterns(".git", "target", ".bench_build")
    shutil.copytree(ROOT, dst, ignore=ignore, symlinks=True)


def demote(tree):
    """Demotes every `pub fn`; returns {(path, line): name}. Those in test
    modules are demoted too: the checks below never compile them."""
    demoted = {}
    for path in sorted(tree.glob("crates/*/src/**/*.rs")):
        lines = path.read_text().splitlines(keepends=True)
        for i, line in enumerate(lines):
            m = PUB_FN.match(line)
            if m:
                lines[i] = m.group(1) + "pub(crate) " + line[m.end():]
                demoted[(str(path), i + 1)] = m.group(2)
        path.write_text("".join(lines))
    return demoted


def restore(path, line):
    lines = Path(path).read_text().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace("pub(crate) ", "pub ", 1)
    Path(path).write_text("".join(lines))


def messages(tree, command, env):
    """Runs a cargo command; yields (workspace root, rustc diagnostic)."""
    out = subprocess.run(
        command + ["--keep-going", "--message-format=json"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if out.returncode != 0 and "error: could not compile" not in out.stderr:
        sys.exit(f"dead-pub-api: `{' '.join(command)}` failed:\n{out.stderr}")
    base = tree / "perfbench" if "--manifest-path" in command else tree
    for raw in out.stdout.splitlines():
        msg = json.loads(raw)
        if msg.get("reason") == "compiler-message":
            yield base, msg["message"]


def spans(diag):
    yield from diag["spans"]
    for child in diag["children"]:
        yield from spans(child)


def resolve(base, span):
    return os.path.normpath(base / span["file_name"])


def restorable(base, diag, demoted):
    """The demoted definitions a build error asks to make public again."""
    code = (diag.get("code") or {}).get("code")
    found = set()
    if code in ("E0603", "E0624"):
        for span in spans(diag):
            path = resolve(base, span)
            for line in range(span["line_start"], span["line_end"] + 1):
                if (path, line) in demoted:
                    found.add((path, line))
    elif code in ("E0364", "E0365"):
        name = re.search(r"`(\w+)`", diag["message"])
        crate_src = Path(resolve(base, diag["spans"][0])).parents
        crate_src = next(p for p in crate_src if p.name == "src")
        for (path, line), fn in demoted.items():
            if name and fn == name.group(1) and Path(path).is_relative_to(crate_src):
                found.add((path, line))
    return found


def owner(tree, path, line):
    """`Type::name` for a method, `module::name` for a free function."""
    lines = Path(path).read_text().splitlines()
    text = lines[line - 1]
    indent = len(text) - len(text.lstrip())
    for above in reversed(lines[: line - 1]):
        m = IMPL.match(above)
        if m and len(m.group(1)) < indent:
            head = m.group(2).strip()
            if head.startswith("<"):
                depth = 0
                for j, ch in enumerate(head):
                    depth += {"<": 1, ">": -1}.get(ch, 0)
                    if depth == 0:
                        head = head[j + 1 :].strip()
                        break
            head = head.split(" for ", 1)[-1]
            return re.match(r"[\w:]*?(\w+)\s*(?:<|\{|$|where)", head).group(1)
    rel = Path(path).relative_to(tree).with_suffix("")
    parts = [p for p in rel.parts[3:] if p not in ("lib", "mod")]
    return "::".join(parts) or rel.parts[1]


def dead_functions(tree, env):
    """{`Owner::name`: "file:line"} for every function rustc calls unused."""
    dead = {}
    for base, diag in messages(tree, WORKSPACE_CHECK, env):
        if (diag.get("code") or {}).get("code") != "dead_code":
            continue
        for span in diag["spans"]:
            if not span["is_primary"]:
                continue
            path = resolve(base, span)
            text = span["text"][0]
            name = text["text"][text["highlight_start"] - 1 : text["highlight_end"] - 1]
            if not re.search(rf"\bfn\s+{re.escape(name)}\b", text["text"]):
                continue  # a field, type or constant, not a function
            where = f"{Path(path).relative_to(tree)}:{span['line_start']}"
            dead[f"{owner(tree, path, span['line_start'])}::{name}"] = where
    return dead


def read_allowlist():
    allowed = set()
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" — ")
        if not sep or not reason.strip():
            sys.exit(f"{ALLOWLIST.name}:{number}: expected `Type::name — reason`")
        allowed.add(name.strip())
    return allowed


def main():
    allowed = read_allowlist()
    with tempfile.TemporaryDirectory(prefix="dead-pub-api-") as tmp:
        tree = Path(tmp) / "repo"
        copy_tree(tree)
        env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / "target"))
        demoted = demote(tree)
        print(f"dead-pub-api: demoted {len(demoted)} pub fns", file=sys.stderr)
        # Each round restores at least one demoted function, so this ends.
        for round_ in itertools.count(1):
            errors, found = [], set()
            for command in (WORKSPACE_CHECK, PERFBENCH_CHECK):
                for base, diag in messages(tree, command, env):
                    if diag["level"] != "error" or diag["message"].startswith("aborting"):
                        continue
                    hits = restorable(base, diag, demoted)
                    found |= hits
                    if not hits:
                        errors.append(diag["rendered"])
            if not found:
                break
            for path, line in found:
                restore(path, line)
                del demoted[(path, line)]
            print(f"dead-pub-api: round {round_}: restored {len(found)}", file=sys.stderr)
        if errors:
            sys.exit("dead-pub-api: the demoted tree does not build:\n" + "".join(errors))
        dead = dead_functions(tree, env)

    status = 0
    for name, where in sorted(dead.items(), key=lambda kv: kv[1]):
        if name not in allowed:
            print(f"{where}: `{name}` has no caller outside tests: delete it, move it "
                  f"into its tests, or name it in {ALLOWLIST.name}")
            status = 1
    for name in sorted(allowed - set(dead)):
        print(f"{ALLOWLIST.name}: `{name}` is no longer dead code: remove its line")
        status = 1
    if status == 0:
        print(f"dead-pub-api: {len(dead)} test-only functions, all allowlisted")
    return status


if __name__ == "__main__":
    sys.exit(main())
