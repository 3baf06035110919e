#!/usr/bin/env python3
"""Link-and-anchor checker for the repository's Markdown docs.

Checks, over every ``*.md`` at the repo root and under ``docs/``:

1. every relative Markdown link ``[text](path)`` resolves to a file
   that exists (external ``http(s)``/``mailto`` links are skipped);
2. every ``#fragment`` on a relative link matches a heading in the
   target file (GitHub-style slugs);
3. every file under ``docs/`` is reachable from ``README.md`` —
   following both Markdown links and inline-code path mentions like
   ``docs/metrics.md``, so prose references count;
4. every machine-generated doc (``docs/calibration.md``,
   ``docs/cli.md``, and the marked blocks in ``EXPERIMENTS.md`` and
   ``docs/performance.md``)
   matches byte-for-byte regeneration from its committed inputs
   (``tools/gen_docs.py --check``) — hand edits to generated tables
   fail here;
5. every ``BENCH_*.json`` trajectory at the repo root is named by at
   least one authored doc, so no benchmark artifact is orphaned.

Exit status 0 when clean; 1 with one line per problem otherwise.
Run as ``python tools/check_docs.py [repo-root]``.
"""

import pathlib
import re
import sys

# Retrieval/task artifacts shipped with the repo, not authored docs:
# PAPER/PAPERS carry links into the original PDFs' asset trees.
SKIP = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
EXTERNAL = ("http://", "https://", "mailto:")


def doc_files(root):
    files = sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md"))
    return [path for path in files if path.is_file() and path.name not in SKIP]


def slugify(heading):
    """GitHub's heading -> anchor rule: lowercase, drop punctuation,
    spaces to hyphens (backtick code spans keep their text)."""
    text = heading.strip().lower().replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_in(path):
    return {slugify(match) for match in HEADING.findall(path.read_text(encoding="utf-8"))}


def check_links(root):
    problems = []
    for path in doc_files(root):
        text = path.read_text(encoding="utf-8")
        for target in LINK.findall(text):
            if target.startswith(EXTERNAL):
                continue
            target, _, fragment = target.partition("#")
            where = "{}: link {!r}".format(path.relative_to(root), target or "#" + fragment)
            if target:
                resolved = (path.parent / target).resolve()
                if not resolved.exists():
                    problems.append(where + " does not resolve")
                    continue
            else:
                resolved = path
            if fragment and resolved.suffix == ".md":
                if fragment not in anchors_in(resolved):
                    problems.append(where + " has no anchor #" + fragment)
    return problems


def check_reachability(root):
    """BFS from README.md; an edge exists when a doc mentions another
    doc's repo-relative path or bare filename anywhere in its text."""
    files = doc_files(root)
    readme = root / "README.md"
    if not readme.is_file():
        return ["README.md missing"]
    reachable = {readme}
    frontier = [readme]
    while frontier:
        text = frontier.pop().read_text(encoding="utf-8")
        for candidate in files:
            if candidate in reachable:
                continue
            rel = str(candidate.relative_to(root))
            if rel in text or candidate.name in text:
                reachable.add(candidate)
                frontier.append(candidate)
    return [
        "docs/{} is not reachable from README.md".format(path.name)
        for path in files
        if path.parent.name == "docs" and path not in reachable
    ]


def check_generated(root):
    """Generated docs must match regeneration from committed inputs.

    Only meaningful at the real repo root (gen_docs renders from the
    BENCH_*.json files and the live argparse tree there); for any other
    root this is a no-op so the link checks stay usable on doc subsets.
    """
    import gen_docs  # same directory; sys.path already includes it

    if root.resolve() != gen_docs.ROOT:
        return []
    return [
        "{} drifts from regeneration — run `python tools/gen_docs.py`".format(rel)
        for rel in gen_docs.drift()
    ]


def check_bench_references(root):
    """Every BENCH_*.json trajectory must be named by an authored doc."""
    corpus = "\n".join(
        path.read_text(encoding="utf-8") for path in doc_files(root)
    )
    return [
        "{} is referenced by no doc — name it in EXPERIMENTS.md or docs/".format(
            path.name
        )
        for path in sorted(root.glob("BENCH_*.json"))
        if path.name not in corpus
    ]


def main(root=None):
    root = pathlib.Path(root or pathlib.Path(__file__).resolve().parent.parent)
    problems = (
        check_links(root)
        + check_reachability(root)
        + check_generated(root)
        + check_bench_references(root)
    )
    for problem in problems:
        print(problem)
    if not problems:
        print("docs ok: {} files checked".format(len(doc_files(root))))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
