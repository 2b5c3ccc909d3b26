"""Exception hierarchy shared across the package."""


class RagBenchError(Exception):
    """Base class for all errors raised by this package."""


def tag_qa(exc: RagBenchError, qa_id: str) -> None:
    """Mark exc, in place, as raised while handling QA item qa_id.

    Sets exc.qa_id and prefixes str(exc) with "[qa <id>] ". The exception
    keeps its type, attributes, traceback and chain, so a caller re-raises
    it with a bare raise; building a new one of type(exc) would fail for
    classes whose __init__ takes other arguments.
    """
    exc.qa_id = qa_id
    exc.args = (f"[qa {qa_id}] {exc}",)


# -- corpus --------------------------------------------------------------

class MalformedLine(RagBenchError):
    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        self.reason = reason
        msg = f"malformed line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class EmptyCorpus(RagBenchError):
    pass


class PathNotFound(RagBenchError):
    pass


# -- configuration -------------------------------------------------------

class InvalidConfig(RagBenchError):
    pass


class TemplateError(InvalidConfig):
    pass


# -- embedding / vector store --------------------------------------------

class EmptyText(RagBenchError):
    pass


class DimMismatch(RagBenchError):
    pass


class DuplicateRef(RagBenchError):
    pass


class EmptyIndex(RagBenchError):
    pass


class FormatError(RagBenchError):
    pass


class ChecksumError(RagBenchError):
    pass


# -- remote calls --------------------------------------------------------

class RequestTimeout(RagBenchError):
    pass


class RateLimitedExhausted(RagBenchError):
    pass


class ProtocolError(RagBenchError):
    pass


class EmptyCompletion(RagBenchError):
    pass


# -- metrics -------------------------------------------------------------

class MetricUndefined(RagBenchError):
    pass


class EmptyResults(RagBenchError):
    pass
