"""The package's errors: one class per exit code, and MalformedLine, which
names the bad input line."""


class RagBenchError(Exception):
    """A data or runtime error (exit 2); base class of every error raised
    by this package."""


class InvalidConfig(RagBenchError):
    """A usage or config error (exit 1)."""


class MalformedLine(RagBenchError):
    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        msg = f"malformed line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


def tag_qa(exc: RagBenchError, qa_id: str) -> None:
    """Mark exc, in place, as raised while handling QA item qa_id.

    Sets exc.qa_id and prefixes str(exc) with "[qa <id>] ". The exception
    keeps its type, attributes, traceback and chain, so a caller re-raises
    it with a bare raise; building a new one of type(exc) would fail for
    classes whose __init__ takes other arguments.
    """
    exc.qa_id = qa_id
    exc.args = (f"[qa {qa_id}] {exc}",)
