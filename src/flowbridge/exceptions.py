"""Exception types shared across the package."""


class FlowbridgeError(Exception):
    """Base of every error the package raises on purpose; the CLI reports it on one line."""


class ValidationError(FlowbridgeError, ValueError):
    """Input violates a documented precondition."""


class ShapeError(ValidationError):
    """Array shapes are inconsistent with the operation's contract."""


class ConfigError(ValidationError):
    """Experiment configuration is malformed or out of range."""


class DivergenceError(FlowbridgeError, RuntimeError):
    """ODE integration produced a non-finite state."""

    def __init__(self, step: int, tau: float):
        self.step = step
        self.tau = tau
        super().__init__(f"non-finite state at integration step {step} (tau={tau:.6g})")


class TrainingDivergedError(FlowbridgeError, RuntimeError):
    """The training loss went non-finite."""

    def __init__(self, iteration: int, loss: float):
        self.iteration = iteration
        self.loss = loss
        super().__init__(f"non-finite loss ({loss}) at training iteration {iteration}")


class CheckpointError(FlowbridgeError, RuntimeError):
    """Checkpoint file is corrupt, truncated, or has an unknown version."""


class CsvFormatError(FlowbridgeError, ValueError):
    """CSV input could not be parsed."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
