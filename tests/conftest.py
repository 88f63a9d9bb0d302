import importlib
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# hypothesis reports a falsifying example through its patch writer, whose
# import of libcst raises a DeprecationWarning on some installs; under
# -W error that warning would end the run with INTERNALERROR instead of
# printing the example, so the writer is imported once, here
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass
