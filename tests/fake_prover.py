"""A stdio prover that speaks the SerAPI subset SubprocessBackend sends,
backed by a SyntheticBackend.

Run as ``python -S fake_prover.py PACKAGE_DIR SPEC_JSON``. PACKAGE_DIR is the
prooforge package directory; a stub package loads only ``coq_backend`` and
what it imports, so a child starts without numpy or the rest of prooforge.
SPEC_JSON holds the SyntheticBackend arguments in the ``--backend-spec``
format, plus an optional ``fault`` and an optional ``stats`` path. Every
fake sharing a stats file appends ``start`` to it when it starts and
``exec`` for each sentence it executes.

Commands are ``(Add () "sentence")``, ``(Exec sid)``, ``(Cancel (sid ...))``
and ``(Query (...) Goals)``. Each is answered with ``(Answer n Ack)``, its
answer bodies and ``(Answer n Completed)``; Exec also prints a feedback line
first. The document is a list of sentences, each with its context once
executed: the Require lines and the proof state after it. The goals print as
one ``CoqString`` per goal, without hypotheses, escaped as sexplib prints.

A fault ``{"kind": k, "sentence": s, "flag": path}`` fires on the first Exec
of sentence `s` among all fakes sharing the flag file, after the Ack:
``crash`` exits, ``hang`` stops answering, ``garbage`` prints a line that is
not an s-expression, ``deep`` prints a 100,000-deep answer and exits, and
``error`` answers a CoqExn.
"""

import itertools
import json
import os
import sys
import types

THEOREM = "Theorem goal_ : "
DEEP = 100_000


ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r", "\b": "\\b"}


def quote(text: str) -> str:
    """A quoted sexplib atom: OCaml's ``String.escaped`` over the UTF-8
    bytes, so every byte outside printable ASCII prints as ``\\ddd``."""
    out = []
    for byte in text.encode("utf-8"):
        char = chr(byte)
        if char in ESCAPES:
            out.append(ESCAPES[char])
        elif 32 <= byte <= 126:
            out.append(char)
        else:
            out.append(f"\\{byte:03d}")
    return '"' + "".join(out) + '"'


def coq_exn(sid, message: str) -> str:
    return (
        f"(CoqExn ((loc ()) (stm_ids ({sid})) (backtrace (Backtrace ())) "
        f"(exn (Failure)) (pp (Pp_string {quote(message)})) (str {quote(message)})))"
    )


def load_backend(spec: dict):
    from prooforge.coq_backend import Lemma, SyntheticBackend

    return SyntheticBackend(
        rewrites=spec.get("rewrites", {}),
        lemmas={
            name: Lemma(body["conclusion"], tuple(body.get("premises", ())))
            for name, body in spec.get("lemmas", {}).items()
        },
        required_modules=spec.get("required_modules", {}),
        internal_forms=spec.get("internal_forms", {}),
        auto_solved=spec.get("auto_solved", ()),
    )


def execute(backend, context, sentence: str):
    """The context after `sentence`, and None; or None and an error text."""
    if context is None:
        return None, "The previous sentence failed."
    requires, state = context
    if sentence.startswith("Require "):
        return (requires + (sentence,), state), None
    if sentence == "Proof.":
        return context, None
    if sentence.startswith(THEOREM):
        result = backend.compile_theorem(sentence[len(THEOREM):-1], requires)
    elif state is None:
        return None, "No proof in progress."
    else:
        result = backend._step(sentence, state)
    if not result.success:
        return None, result.error
    return (requires, result.state), None


def fault_fires(fault, sentence: str) -> bool:
    if not fault or fault["sentence"] != sentence:
        return False
    try:
        os.close(os.open(fault["flag"], os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def main(package_dir: str, spec_path: str) -> None:
    package = types.ModuleType("prooforge")
    package.__path__ = [package_dir]
    sys.modules["prooforge"] = package
    from prooforge.coq_backend import parse_sexp

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    fault = spec.get("fault")
    backend = load_backend(spec)

    def count(event: str) -> None:
        if spec.get("stats"):
            with open(spec["stats"], "a", encoding="utf-8") as fh:
                fh.write(event + "\n")

    count("start")
    doc = []  # [sid, sentence, context], in document order
    ids = itertools.count(1)

    def answer(tag, body) -> None:
        print(f"(Answer {tag} {body})", flush=True)

    for tag, line in enumerate(sys.stdin, 1):
        command = parse_sexp(line)
        answer(tag, "Ack")
        head = command[0]
        if head == "Add":
            sid = next(ids)
            doc.append([str(sid), command[2], None])
            answer(tag, f"(Added {sid} ((bp 0) (ep {len(command[2])})) NewTip)")
        elif head == "Exec":
            index = [entry[0] for entry in doc].index(command[1])
            sid, sentence, _ = doc[index]
            count("exec")
            if fault_fires(fault, sentence):
                if fault["kind"] == "crash":
                    return
                if fault["kind"] == "hang":
                    sys.stdin.read()
                    return
                if fault["kind"] == "deep":
                    answer(tag, "(" * DEEP + ")" * DEEP)
                    return
                if fault["kind"] == "garbage":
                    print(")garbage(", flush=True)
                    continue
                answer(tag, coq_exn(sid, "injected error"))
                answer(tag, "Completed")
                continue
            print(f"(Feedback ((doc_id 0) (span_id {sid}) (route 0) (contents Processed)))")
            before = doc[index - 1][2] if index else ((), None)
            context, error = execute(backend, before, sentence)
            doc[index][2] = context
            if error is not None:
                answer(tag, coq_exn(sid, error))
        elif head == "Cancel":
            cut = min(i for i, entry in enumerate(doc) if entry[0] in command[1])
            cancelled, doc[cut:] = [entry[0] for entry in doc[cut:]], []
            answer(tag, f"(Canceled ({' '.join(cancelled)}))")
        elif head == "Query":
            context = doc[-1][2] if doc else None
            goals = context[1].goals if context and context[1] else ()
            strings = " ".join(f"(CoqString {quote(g.goal_surface)})" for g in goals)
            answer(tag, f"(ObjList ({strings}))")
        else:
            answer(tag, coq_exn(0, f"Unknown command {head}."))
        answer(tag, "Completed")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
