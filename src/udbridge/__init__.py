"""Bootstrapping annotation tools for a low-resource language.

The package covers the full chain: tokenization, word-for-word pivot
translation, word alignment, three annotation-projection procedures,
perceptron tagging, suffix-rule lemmatization, transition-based parsing,
evaluation with cross-validation and significance tests, corpus
statistics, a command-line tool, and an HTTP service.
"""

# perfbench/tracer.py finds these modules in sys.modules after `import udbridge`
from . import (  # noqa: F401
    aligner,
    conllu,
    depparser,
    evaluation,
    lemmatizer,
    perceptron,
    pipeline,
    projection,
    service,
    tagger,
    tokenizer,
    translate,
)
