"""leanrag: token-frugal retrieval-augmented generation for black-box LLMs.

Pipeline stages: dense retrieval, two-label document scoring (answer presence
and LLM preference) trained with a learned imbalance weight, retrieval-skip
decisions from self-knowledge signals, sub-document compression with a learned
stopping detector, and prompt construction — plus an evaluation harness.
"""

from .corpus import (Corpus, Document, QARecord, SubDocument, contains_answer,
                     count_tokens, generate_subdocuments, load_corpus, load_qa,
                     split_sentences)
from .llm import (DEFAULT_TEMPLATES, HttpLlmClient, LlmRequest, LlmResponse,
                  PromptTemplate, ScriptedLlmClient, build_noretrieve_prompt,
                  build_retrieve_prompt, is_correct)
from .pipeline import (AnswerTrace, EvalReport, PipelineConfig, PipelineContext,
                       answer_question, evaluate, load_pipeline)
from .recognizer import (Decision, NnReferenceSet, RecognizerConfig,
                         RecognizerVerdict, build_nn_reference, decide,
                         long_tail_score, neighbor_score)
from .reducer import (DetectorModel, DetectorTrainConfig, SubDocCombination,
                      build_detector_dataset, greedy_filter, prerank, reduce,
                      representative_subdocs, rerank_topk, train_detector)
from .retrieval import (HashingEmbedder, RemoteEmbedder, RetrievedDoc,
                        Retriever, VectorIndex, build_index, recall_at_k)
from .scorer import (BiLabel, BiLabelScore, LabeledPair, ScorerModel,
                     TrainConfig, TrainingSet, annotate_training_pair,
                     build_training_set, train_scorer)

__version__ = "0.1.0"
